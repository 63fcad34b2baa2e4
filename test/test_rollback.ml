(* Region rollback on the compiled engine (lazy checkpoints, prefix
   replay) against the interpreter's eager-snapshot reference
   (Simulator.run_recovering): the same Outcome.run, field for field,
   memory digest included, for every workload, fault model and retry
   budget, started fresh and from a golden-prefix snapshot. *)

module W = Casted_workloads.Workload
module Registry = Casted_workloads.Registry
module Scheme = Casted_detect.Scheme
module Pipeline = Casted_detect.Pipeline
module Simulator = Casted_sim.Simulator
module Decode = Casted_sim.Decode
module Compile = Casted_sim.Compile
module Replay = Casted_sim.Replay
module State = Casted_sim.State
module Fault = Casted_sim.Fault
module Rng = Casted_sim.Rng
module Outcome = Casted_sim.Outcome
module Montecarlo = Casted_sim.Montecarlo
module Metrics = Casted_obs.Metrics
module Engine = Casted_engine.Engine
module Cache = Casted_engine.Cache

type prepared = {
  decoded : Decode.t;
  compiled : Compile.t;
  replay : Replay.t;
  golden : Outcome.run;
  pop : Fault.population;
  (* A tight fuel budget, 1.1x the golden run: control faults that add
     loop iterations then time out, and time-outs stay cheap. The
     engines must agree whatever the budget. *)
  fuel : int;
}

let prepare name =
  let w =
    match Registry.find name with
    | Some w -> w
    | None -> Alcotest.failf "unknown workload %S" name
  in
  let c =
    Pipeline.compile ~scheme:Scheme.Rollback ~issue_width:2 ~delay:2
      (w.W.build W.Fault)
  in
  let decoded = Decode.of_schedule c.Pipeline.schedule in
  let replay = Replay.capture decoded in
  let golden = Replay.golden replay in
  let dyn = golden.Outcome.dyn_insns in
  {
    decoded;
    compiled = Compile.of_decoded decoded;
    replay;
    golden;
    pop = Montecarlo.population_of_run golden;
    fuel = dyn + (dyn / 10);
  }

let with_metrics f =
  Metrics.reset ();
  Metrics.set_enabled true;
  Fun.protect f ~finally:(fun () ->
      Metrics.set_enabled false;
      Metrics.reset ())

let counter name =
  match List.assoc_opt name (Metrics.snapshot ()) with
  | Some (Metrics.Counter n) -> n
  | _ -> 0

(* Run [f] and return its result with the growth of counter [name]. *)
let counting name f =
  let before = counter name in
  let r = f () in
  (r, counter name - before)

(* The compiled run from the trial's golden-prefix snapshot, reporting
   whether a checkpoint rebuild was based before that snapshot (the
   trial failed before reaching a region head of its own). *)
let run_replayed p ~fault ~retry_budget =
  let pre_start = ref false in
  let prefix =
    Option.map
      (fun (pf : Compile.prefix) ->
        let start = pf.Compile.start.State.s_dyn in
        {
          pf with
          Compile.base =
            (fun dyn ->
              if dyn < start then pre_start := true;
              pf.Compile.base dyn);
        })
      (Replay.recovery_prefix p.replay fault)
  in
  let r =
    Simulator.run_compiled_recovering ~fault ~fuel:p.fuel ~with_mem_digest:true
      ?prefix ~retry_budget p.compiled
  in
  (r, !pre_start)

type coverage = {
  mutable multi_retry : int;  (* trials with >= 2 rollbacks *)
  mutable exhausted : int;  (* budget spent, failure reported *)
  mutable timeouts : int;
  mutable pre_start : int;  (* a rebuild based before the start snapshot *)
}

let cov = { multi_retry = 0; exhausted = 0; timeouts = 0; pre_start = 0 }
let budgets = [ 0; 1; 3 ]

(* Compare one fault at every budget, three ways; returns the
   mismatching cases. *)
let compare_fault ~name p model fault =
  List.filter_map
    (fun retry_budget ->
      let reference, rollbacks =
        counting "sim.rollbacks" (fun () ->
            Simulator.run_recovering ~fault ~fuel:p.fuel ~with_mem_digest:true
              ~retry_budget p.decoded)
      in
      let fresh =
        Simulator.run_compiled_recovering ~fault ~fuel:p.fuel
          ~with_mem_digest:true ~retry_budget p.compiled
      in
      let replayed, pre_start = run_replayed p ~fault ~retry_budget in
      if rollbacks >= 2 then cov.multi_retry <- cov.multi_retry + 1;
      if pre_start then cov.pre_start <- cov.pre_start + 1;
      (match reference.Outcome.termination with
      | (Outcome.Detected _ | Outcome.Trapped _)
        when rollbacks > 0 && rollbacks = retry_budget ->
          cov.exhausted <- cov.exhausted + 1
      | Outcome.Timeout -> cov.timeouts <- cov.timeouts + 1
      | _ -> ());
      let tag =
        Format.asprintf "%s %s %a budget %d" name (Fault.model_name model)
          Fault.pp fault retry_budget
      in
      match (fresh = reference, replayed = reference) with
      | true, true -> None
      | false, _ -> Some (tag ^ " (fresh)")
      | true, false -> Some (tag ^ " (replayed)"))
    budgets

(* The corner cases a random draw may miss, searched for on the cheap
   compiled path (seeded, so the chosen faults are fixed) and then
   compared against the reference like every other fault. On h263dec a
   few dozen reg-bit draws show a multi-retry chain and a rebuild before
   the start snapshot, and control faults time out under the tight
   fuel. *)
let corner_faults p =
  let search model wanted =
    let rng = Rng.create ~seed:7 in
    let rec go wanted found draws =
      if wanted = [] || draws = 0 then found
      else
        let fault = Fault.random model rng ~population:p.pop in
        let (r, pre_start), rollbacks =
          counting "sim.rollbacks" (fun () ->
              run_replayed p ~fault ~retry_budget:3)
        in
        let shows = function
          | `Multi -> rollbacks >= 2
          | `Timeout -> r.Outcome.termination = Outcome.Timeout
          | `Pre_start -> pre_start
        in
        match List.partition shows wanted with
        | [], _ -> go wanted found (draws - 1)
        | _, rest -> go rest ((model, fault) :: found) (draws - 1)
    in
    go wanted [] 500
  in
  search Fault.Reg_bit [ `Multi; `Pre_start ]
  @ search Fault.Control [ `Timeout ]

(* Every workload x fault model x budget {0, 1, 3}, fresh and replayed:
   one seeded fault per (workload, model), plus the corner-case faults
   on h263dec. Computed once; each workload's case forces it. *)
let mismatches =
  lazy
    (with_metrics (fun () ->
         List.concat_map
           (fun name ->
             let p = prepare name in
             let random =
               List.mapi
                 (fun mi model ->
                   let rng = Rng.create ~seed:(Rng.derive ~seed:41 mi) in
                   (model, Fault.random model rng ~population:p.pop))
                 Fault.all_models
             in
             let corner =
               if String.equal name "h263dec" then corner_faults p else []
             in
             List.concat_map
               (fun (model, fault) ->
                 List.map
                   (fun tag -> (name, tag))
                   (compare_fault ~name p model fault))
               (random @ corner))
           (Registry.names ())))

let check_workload name () =
  match
    List.filter_map
      (fun (w, tag) -> if String.equal w name then Some tag else None)
      (Lazy.force mismatches)
  with
  | [] -> ()
  | tags ->
      Alcotest.failf "compiled rollback differs from the reference:\n%s"
        (String.concat "\n" tags)

let test_coverage () =
  ignore (Lazy.force mismatches : (string * string) list);
  let at_least what n =
    Alcotest.(check bool)
      (Printf.sprintf "sample has %s (%d)" what n)
      true (n > 0)
  in
  at_least "a trial with >= 2 retries" cov.multi_retry;
  at_least "an exhausted budget (poisoned checkpoint)" cov.exhausted;
  at_least "a time-out" cov.timeouts;
  at_least "a rebuild before the start snapshot" cov.pre_start

(* Metrics describe the run that was returned: a recovered run's
   sim.insns / sim.cycles include its failed attempts, on both
   engines. *)
let test_metrics_count_folded_run () =
  let p = prepare "cjpeg" in
  let rng = Rng.create ~seed:5 in
  with_metrics (fun () ->
      let rolled_back = ref 0 in
      for _ = 1 to 40 do
        let fault = Fault.random Fault.Reg_bit rng ~population:p.pop in
        let check what run =
          let (r : Outcome.run), rollbacks =
            counting "sim.rollbacks" (fun () ->
                let r, insns = counting "sim.insns" run in
                Alcotest.(check int)
                  (what ^ ": sim.insns delta = dyn_insns")
                  r.Outcome.dyn_insns insns;
                r)
          in
          rolled_back := !rolled_back + rollbacks;
          r
        in
        let a =
          check "reference" (fun () ->
              Simulator.run_recovering ~fault ~fuel:p.fuel ~retry_budget:3
                p.decoded)
        in
        let b =
          check "compiled" (fun () ->
              fst (run_replayed p ~fault ~retry_budget:3))
        in
        Alcotest.(check int) "same dyn_insns" a.Outcome.dyn_insns
          b.Outcome.dyn_insns
      done;
      Alcotest.(check bool) "some trials rolled back" true (!rolled_back > 0);
      Alcotest.(check bool) "rebuilds are counted" true
        (counter "sim.rollback_rebuilds" > 0
        && counter "sim.rollback_rebuild_insns" > 0))

(* Engine campaigns on the new path: ROLLBACK tallies are bit-identical
   at jobs 1 and 4, and equal the interpreter reference with neither
   the compiled engine nor replay. The new path reports real replay
   statistics. *)
let test_engine_campaign () =
  List.iter
    (fun (workload, model) ->
      let key =
        Cache.key ~workload ~size:W.Fault ~scheme:Scheme.Rollback
          ~issue_width:2 ~delay:2 ()
      in
      let run jobs =
        Engine.with_engine ~jobs (fun e ->
            Engine.campaign e ~seed:21 ~model ~trials:96 key)
      in
      let seq = run 1 and par = run 4 in
      let reference =
        Engine.with_engine ~jobs:2 (fun e ->
            Montecarlo.run_decoded ~pool:(Engine.pool e) ~seed:21 ~model
              ~retry_budget:Engine.default_retry_budget ~trials:96
              (Cache.decoded (Engine.cache e) key))
      in
      let what = Printf.sprintf "%s %s" workload (Fault.model_name model) in
      Alcotest.(check bool) (what ^ ": jobs=4 = jobs=1") true (seq = par);
      Alcotest.(check (array int))
        (what ^ ": tally = reference")
        (Montecarlo.counts reference) (Montecarlo.counts seq);
      Alcotest.(check bool)
        (what ^ ": reference has no replay stats")
        true
        (reference.Montecarlo.replay = None);
      match seq.Montecarlo.replay with
      | None -> Alcotest.failf "%s: no replay statistics" what
      | Some s ->
          Alcotest.(check int)
            (what ^ ": every trial accounted")
            96
            (s.Montecarlo.replayed + s.Montecarlo.full_runs);
          Alcotest.(check bool)
            (what ^ ": trials replayed")
            true
            (s.Montecarlo.replayed > 0 && s.Montecarlo.mean_suffix < 1.0))
    [
      ("cjpeg", Fault.Reg_bit);
      ("h263dec", Fault.Mem);
      ("mpeg2dec", Fault.Control);
    ]

let suite =
  ( "rollback",
    List.map
      (fun name ->
        Alcotest.test_case
          (Printf.sprintf "compiled = reference: %s" name)
          `Quick (check_workload name))
      (Registry.names ())
    @ [
        Alcotest.test_case "sample covers the rollback corner cases" `Quick
          test_coverage;
        Alcotest.test_case "metrics count the folded run" `Quick
          test_metrics_count_folded_run;
        Alcotest.test_case "engine campaign: jobs 1 = 4 = reference" `Quick
          test_engine_campaign;
      ] )
