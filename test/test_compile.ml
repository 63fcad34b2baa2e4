(* The stage-2 closure-threaded engine: bit-identity against the
   decoded interpreter (fault-free and under every fault model), one
   physically shared compiled program per cache key (across hits and
   pool domains), and pool-size-independent campaign tallies on the
   compiled path. *)

open Helpers
module Montecarlo = Casted_sim.Montecarlo
module Compile = Casted_sim.Compile
module Replay = Casted_sim.Replay
module Decode = Casted_sim.Decode
module Fault = Casted_sim.Fault
module Cache = Casted_engine.Cache
module Engine = Casted_engine.Engine
module Pool = Casted_exec.Pool
module W = Casted_workloads.Workload

let cjpeg_key ?(scheme = Scheme.Casted) () =
  Cache.key ~workload:"cjpeg" ~size:W.Fault ~scheme ~issue_width:2 ~delay:2
    ()

let cjpeg_decoded ?scheme () =
  let program =
    match Casted_workloads.Registry.find "cjpeg" with
    | Some w -> w.W.build W.Fault
    | None -> Alcotest.fail "cjpeg not registered"
  in
  let scheme = Option.value scheme ~default:Scheme.Casted in
  let c = Pipeline.compile ~scheme ~issue_width:2 ~delay:2 program in
  Decode.of_schedule c.Pipeline.schedule

let same_run msg (a : Outcome.run) (b : Outcome.run) =
  let ck f x y = Alcotest.(check int) (msg ^ ": " ^ f) x y in
  ck "cycles" a.Outcome.cycles b.Outcome.cycles;
  ck "dyn_insns" a.Outcome.dyn_insns b.Outcome.dyn_insns;
  ck "dyn_defs" a.Outcome.dyn_defs b.Outcome.dyn_defs;
  ck "dyn_mem" a.Outcome.dyn_mem b.Outcome.dyn_mem;
  ck "dyn_branches" a.Outcome.dyn_branches b.Outcome.dyn_branches;
  ck "dyn_xreads" a.Outcome.dyn_xreads b.Outcome.dyn_xreads;
  ck "dyn_checks" a.Outcome.dyn_checks b.Outcome.dyn_checks;
  ck "slots_total" a.Outcome.slots_total b.Outcome.slots_total;
  ck "exit_code" a.Outcome.exit_code b.Outcome.exit_code;
  Alcotest.(check bool)
    (msg ^ ": termination") true
    (a.Outcome.termination = b.Outcome.termination);
  Alcotest.(check string) (msg ^ ": output") a.Outcome.output b.Outcome.output;
  Alcotest.(check string)
    (msg ^ ": mem_digest") a.Outcome.mem_digest b.Outcome.mem_digest

(* Fault-free: the compiled run must match the decoded run field for
   field on every scheme, including the whole final memory image. *)
let test_fault_free_bit_identity () =
  List.iter
    (fun scheme ->
      let decoded = cjpeg_decoded ~scheme () in
      let a = Simulator.run_decoded ~with_mem_digest:true decoded in
      let b =
        Simulator.run_compiled ~with_mem_digest:true
          (Compile.of_decoded decoded)
      in
      same_run (Scheme.name scheme) a b)
    [ Scheme.Noed; Scheme.Sced; Scheme.Dced; Scheme.Casted; Scheme.Tmr ]

(* Faulty trials: same classification as the interpreter for every
   fault model, with and without golden-prefix replay composed in. *)
let test_faulty_trials_every_model () =
  let decoded = cjpeg_decoded () in
  let compiled = Compile.of_decoded decoded in
  let check ~replay =
    let replay_set =
      if replay then Some (Replay.capture ~compiled decoded) else None
    in
    let golden = Montecarlo.golden_decoded ?replay_set decoded in
    List.iter
      (fun model ->
        for index = 0 to 15 do
          let a =
            Montecarlo.trial_decoded ~model ~golden ~seed:42 ~index decoded
          in
          let b =
            Montecarlo.trial_compiled ~model ~golden ~seed:42 ~index
              ~compiled decoded
          in
          Alcotest.(check string)
            (Printf.sprintf "%s trial %d (replay=%b)"
               (Fault.model_name model) index replay)
            (Montecarlo.class_name a) (Montecarlo.class_name b)
        done)
      Fault.all_models
  in
  check ~replay:false;
  check ~replay:true

(* Cache: repeated lookups return the physically equal program. *)
let test_cache_physical_sharing () =
  let cache = Cache.create () in
  let k = cjpeg_key () in
  let a = Cache.compiled cache k in
  let b = Cache.compiled cache k in
  Alcotest.(check bool) "physically equal" true (a == b);
  let s = Cache.stats cache in
  Alcotest.(check int) "one stage-2 compile" 1 s.Cache.compiled_misses;
  Alcotest.(check int) "one hit" 1 s.Cache.compiled_hits;
  Alcotest.(check int) "one entry" 1 s.Cache.compiled_entries

(* Cache under a pool: every domain racing on the same key receives the
   same program (first insert wins). *)
let test_cache_sharing_across_domains () =
  let cache = Cache.create () in
  let k = cjpeg_key () in
  let pool = Pool.create ~jobs:4 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let programs =
        Pool.map pool (fun _ -> Cache.compiled cache k) [| 0; 1; 2; 3 |]
      in
      Array.iter
        (fun p ->
          Alcotest.(check bool)
            "same program on every domain" true
            (p == programs.(0)))
        programs;
      let s = Cache.stats cache in
      Alcotest.(check int) "one entry" 1 s.Cache.compiled_entries)

let same_result msg (a : Montecarlo.result) (b : Montecarlo.result) =
  let ck f x y = Alcotest.(check int) (msg ^ ": " ^ f) x y in
  ck "trials" a.Montecarlo.trials b.Montecarlo.trials;
  ck "benign" a.Montecarlo.benign b.Montecarlo.benign;
  ck "detected" a.Montecarlo.detected b.Montecarlo.detected;
  ck "exceptions" a.Montecarlo.exceptions b.Montecarlo.exceptions;
  ck "corrupt" a.Montecarlo.corrupt b.Montecarlo.corrupt;
  ck "timeouts" a.Montecarlo.timeouts b.Montecarlo.timeouts;
  ck "recovered" a.Montecarlo.recovered b.Montecarlo.recovered

(* Compiled campaigns are pool-size independent, and match the
   interpreter reference (neither the compiled engine nor replay, on
   the cell's decoded program) tally bit for bit. *)
let test_campaign_jobs_bit_identity () =
  let k = cjpeg_key () in
  let campaign engine = Engine.campaign engine ~seed:7 ~trials:256 k in
  let one = Engine.with_engine ~jobs:1 campaign in
  let four = Engine.with_engine ~jobs:4 campaign in
  same_result "jobs 1 vs 4 (compiled)" one four;
  let interp =
    Engine.with_engine ~jobs:4 (fun e ->
        Montecarlo.run_decoded ~pool:(Engine.pool e) ~seed:7 ~trials:256
          (Cache.decoded (Engine.cache e) k))
  in
  same_result "compiled vs interpreter" one interp

let suite =
  ( "compile",
    [
      case "fault-free runs are bit-identical to decoded, every scheme"
        test_fault_free_bit_identity;
      case "faulty trials match the interpreter on every model"
        test_faulty_trials_every_model;
      case "cache hits share one compiled program"
        test_cache_physical_sharing;
      case "pool domains share one compiled program"
        test_cache_sharing_across_domains;
      case "campaign tally is jobs- and engine-independent"
        test_campaign_jobs_bit_identity;
    ] )
