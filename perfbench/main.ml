(* The repository benchmark: the host cost of the paper's evaluation.

   One process runs one workload through the library entry points the
   CLI commands call ([Engine.campaign], [Engine.sweep],
   [Verify.Matrix.run]) at jobs = nproc, checks every output against a
   reference, and prints the end-to-end metrics. With [--trace 1] it
   instead decomposes the same work layer by layer (spans from this
   file around each layer's public functions) and prints the per-layer
   metrics. README.md in this directory documents every workload and
   metric.

   Usage (from the repository root):
     main.exe --workload W --seed N --seconds S --trace 0|1
     main.exe --record-sweep FILE    (re-record the perf_sweep reference)

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. *)

module W = Casted_workloads.Workload
module Registry = Casted_workloads.Registry
module Scheme = Casted_detect.Scheme
module Options = Casted_detect.Options
module Pipeline = Casted_detect.Pipeline
module Schedule = Casted_sched.Schedule
module Engine = Casted_engine.Engine
module Cache = Casted_engine.Cache
module Pool = Casted_exec.Pool
module Simulator = Casted_sim.Simulator
module Mc = Casted_sim.Montecarlo
module Outcome = Casted_sim.Outcome
module Fault = Casted_sim.Fault
module Rng = Casted_sim.Rng
module Replay = Casted_sim.Replay
module State = Casted_sim.State
module Decode = Casted_sim.Decode
module Compile = Casted_sim.Compile
module Matrix = Casted_verify.Matrix
module Oracle = Casted_verify.Oracle
module Lint = Casted_verify.Lint
module Json = Casted_obs.Json

let now_ns = Layers.now_ns
let seconds_since t0 = float (now_ns () - t0) /. 1e9
let ratio a b = if b = 0. then 0. else a /. b

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("perfbench: " ^ msg);
      exit 2)
    fmt

(* ---- statistics and output ---- *)

let quantile xs q =
  let a = Array.copy xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0. else a.(min (n - 1) (int_of_float (q *. float n)))

let median xs =
  let a = Array.copy xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf
          (String.sub line 6 (String.length line - 6))
          " %d kB"
          (fun kb -> float kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> 0.
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let emit ~attempted ~failed metrics =
  List.iter
    (fun x -> Printf.printf "  %-36s %16.6f %s\n" x.name x.value x.unit_)
    metrics;
  Printf.printf "operations: %d attempted, %d failed (error_rate %.6f)\n"
    attempted failed
    (ratio (float failed) (float (max 1 attempted)));
  let json =
    Json.Obj
      [
        ("correct", Json.Bool (failed = 0));
        ("attempted", Json.Int attempted);
        ("failed", Json.Int failed);
        ( "metrics",
          Json.Obj
            (List.map
               (fun x ->
                 ( x.name,
                   Json.Obj
                     [ ("value", Json.Float x.value); ("unit", Json.String x.unit_) ]
                 ))
               metrics) );
      ]
  in
  print_endline (Json.to_string json)

(* Seeded Fisher-Yates permutation: the workload's inputs come from
   [--seed] only. *)
let permute ~seed l =
  let a = Array.of_list l in
  let rng = Rng.create ~seed in
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let workload name =
  match Registry.find name with
  | Some w -> w
  | None -> invalid_arg ("perfbench: unknown benchmark " ^ name)

(* The set-ups of one run. A run sets up at least [setup_min_reps]
   times, and until [setup_min_s] seconds of set-up have been timed,
   before its first round; then once more between every two rounds. The
   rounds always use the latest set-up, and every earlier one is
   released and its garbage collected outside the timed windows. So the
   samples spread over the whole run like the rounds do, and [setup_s],
   their median, is not decided by a few seconds of host noise. *)
let setup_min_reps = 3
let setup_min_s = 1.0
let setup_max_reps = 50

type 'a setups = {
  setup : unit -> 'a;
  release : 'a -> unit;
  mutable current : 'a option;  (** [None] only inside {!renew} *)
  mutable times : float list;
}

let time_setup setup =
  let t0 = now_ns () in
  let v = setup () in
  (v, seconds_since t0)

let current s = Option.get s.current

(* Release the current set-up, drop it so the collector can reclaim it,
   and time a new one. *)
let renew s =
  s.release (current s);
  s.current <- None;
  Gc.full_major ();
  let v, dt = time_setup s.setup in
  s.current <- Some v;
  s.times <- dt :: s.times

let start_setups setup release =
  let v, dt = time_setup setup in
  let s = { setup; release; current = Some v; times = [ dt ] } in
  let enough () =
    let n = List.length s.times in
    n >= setup_min_reps
    && (List.fold_left ( +. ) 0. s.times >= setup_min_s || n >= setup_max_reps)
  in
  while not (enough ()) do
    renew s
  done;
  s

let setup_s s = median (Array.of_list s.times)

(* A round is a list of units (a campaign cell, the sweep points of one
   benchmark and issue width, the matrix entries of one benchmark), each
   timed on its own. [measure s ~seconds units] runs rounds, renewing
   the set-up [s] between them, until [seconds] have passed since it
   started and at least one whole round is done; the last round stops
   where the time runs out. Returns every unit's result, grouped by
   round (oldest first, in unit order), and every unit's times. *)
type 'r measured = { rounds : 'r list list; times : float list array; elapsed : float }

let measure s ~seconds units =
  let units = Array.of_list units in
  let times = Array.make (Array.length units) [] in
  let t_start = now_ns () in
  let time_up () = seconds_since t_start >= seconds in
  let rec round acc =
    let first = acc = [] in
    if not first then renew s;
    let rec go i got =
      if i = Array.length units || ((not first) && time_up ()) then List.rev got
      else begin
        let t0 = now_ns () in
        let r = units.(i) (current s) in
        times.(i) <- seconds_since t0 :: times.(i);
        go (i + 1) (r :: got)
      end
    in
    let acc = match go 0 [] with [] -> acc | got -> got :: acc in
    if time_up () then List.rev acc else round acc
  in
  let rounds = round [] in
  { rounds; times; elapsed = seconds_since t_start }

(* The throughput of a run: operations in one round over the round's
   estimated cost, the sum over its units of each unit's median time.
   Rounds repeat identical work, so a unit's repetitions differ only by
   host noise; the median of each unit keeps a slow spell of a shared
   host from counting for more than its share, and short units spread
   every unit's repetitions over the whole run. *)
let rate ops m =
  let ops_per_round = List.fold_left (fun acc r -> acc + ops r) 0 (List.hd m.rounds) in
  let cost =
    Array.fold_left (fun acc ts -> acc +. median (Array.of_list ts)) 0. m.times
  in
  float ops_per_round /. cost

(* ---- the pipeline, one layer at a time (traced runs) ---- *)

(* The detection pass of [Pipeline.compile], called directly so the
   traced run can time it apart from scheduling. *)
let harden scheme program =
  let options = Options.default in
  match scheme with
  | Scheme.Noed -> Casted_ir.Clone.program program
  | Scheme.Sced | Scheme.Dced | Scheme.Casted ->
      fst (Casted_detect.Transform.program options program)
  | Scheme.Dme -> fst (Casted_detect.Dme.program options program)
  | Scheme.Tmr -> fst (Casted_detect.Recover.program options program)
  | Scheme.Rollback ->
      fst
        (Casted_detect.Rollback.program
           (fst (Casted_detect.Transform.program options program)))

let bundles (s : Schedule.t) =
  List.fold_left
    (fun acc (_, (f : Schedule.func_schedule)) ->
      Array.fold_left
        (fun acc b -> acc + Schedule.block_length b)
        acc f.Schedule.blocks)
    0 s.Schedule.funcs

(* Static shape of a schedule: what the traced decomposition must share
   with [Pipeline.compile]. *)
let fingerprint (s : Schedule.t) =
  List.map
    (fun (name, (f : Schedule.func_schedule)) ->
      ( name,
        Array.to_list
          (Array.map
             (fun b -> (Schedule.block_length b, Schedule.block_insns b))
             f.Schedule.blocks) ))
    s.Schedule.funcs

type counters = {
  mutable insns_out : int;
  mutable bundles : int;
  mutable snapshots : int;
  mutable snapshot_bytes : int;
  mutable golden_runs : int;
  mutable golden_insns : int;
}

let new_counters () =
  {
    insns_out = 0;
    bundles = 0;
    snapshots = 0;
    snapshot_bytes = 0;
    golden_runs = 0;
    golden_insns = 0;
  }

(* Build, harden and schedule one configuration under spans. *)
let traced_schedule ctr ~size ~workload:name ~scheme ~issue_width ~delay =
  let program =
    Layers.span "workloads.build" (fun () -> (workload name).W.build size)
  in
  let hardened = Layers.span "detect.transform" (fun () -> harden scheme program) in
  ctr.insns_out <- ctr.insns_out + Casted_ir.Program.num_insns hardened;
  let config = Scheme.machine scheme ~issue_width ~delay in
  let sched =
    Layers.span "sched.schedule" (fun () ->
        Casted_sched.List_scheduler.schedule_program config
          (Scheme.strategy scheme) hardened)
  in
  ctr.bundles <- ctr.bundles + bundles sched;
  (program, sched)

let setup_metrics ctr =
  let ms name = float (Layers.self_ns name) /. 1e6 in
  [
    m "workloads.build_ms" "ms" (ms "workloads.build");
    m "detect.transform_ms" "ms" (ms "detect.transform");
    m "detect.insns_out" "count" (float ctr.insns_out);
    m "sched.schedule_ms" "ms" (ms "sched.schedule");
    m "sched.bundles" "count" (float ctr.bundles);
    m "sim.decode_ms" "ms" (ms "sim.decode");
    m "sim.capture_ms" "ms" (ms "sim.capture");
    m "sim.stage2_ms" "ms" (ms "sim.stage2");
    m "sim.snapshots" "count" (float ctr.snapshots);
    m "sim.snapshot_kib" "KiB" (float ctr.snapshot_bytes /. 1024.);
    m "sim.golden_runs" "count" (float ctr.golden_runs);
    m "sim.golden_ms" "ms" (ms "sim.golden");
    m "sim.golden_ns_per_insn" "ns"
      (ratio (float (Layers.self_ns "sim.golden")) (float ctr.golden_insns));
    m "verify.lint_ms" "ms" (ms "verify.lint");
    m "verify.oracle_ms" "ms" (ms "verify.oracle");
  ]

(* What a jobs = nproc pass through the engine cost the shared
   substrate: pool dispatch, GC (OCaml 5 minor collections stop every
   domain) and the engine cache. *)
type substrate = {
  tasks : int;
  utilisation : float;
  minor : int;
  major : int;
  cache : Cache.stats option;
}

let with_substrate pool f =
  let p0 = Pool.stats pool in
  let g0 = Gc.quick_stat () in
  let v = f () in
  let g1 = Gc.quick_stat () in
  let p1 = Pool.stats pool in
  let wall = p1.Pool.wall_s -. p0.Pool.wall_s in
  ( v,
    {
      tasks = p1.Pool.tasks - p0.Pool.tasks;
      utilisation =
        ratio (p1.Pool.busy_s -. p0.Pool.busy_s) (wall *. float p1.Pool.jobs);
      minor = g1.Gc.minor_collections - g0.Gc.minor_collections;
      major = g1.Gc.major_collections - g0.Gc.major_collections;
      cache = None;
    } )

let substrate_metrics s =
  let hits, misses, entries =
    match s.cache with
    | None -> (0, 0, 0)
    | Some c ->
        ( c.Cache.hits + c.Cache.decoded_hits + c.Cache.replay_hits
          + c.Cache.compiled_hits,
          c.Cache.misses + c.Cache.decoded_misses + c.Cache.replay_misses
          + c.Cache.compiled_misses,
          c.Cache.entries + c.Cache.decoded_entries + c.Cache.replay_entries
          + c.Cache.compiled_entries )
  in
  [
    m "exec.utilisation" "ratio" s.utilisation;
    m "exec.tasks" "count" (float s.tasks);
    m "gc.minor_collections" "count" (float s.minor);
    m "gc.major_collections" "count" (float s.major);
    m "engine.cache_hits" "count" (float hits);
    m "engine.cache_misses" "count" (float misses);
    m "engine.cache_entries" "count" (float entries);
  ]

let write_trace ~workload =
  let dir = ".perfbench" in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let path = Filename.concat dir ("trace-" ^ workload ^ ".json") in
  let oc = open_out path in
  output_string oc (Json.to_string (Layers.to_chrome ()));
  close_out oc;
  Printf.printf "coarse spans written to %s\n" path

(* What a traced run measured. *)
type 'a passes = {
  first : 'a;  (** the traced pass whose layer times are reported *)
  second : 'a;  (** its repeat, for the exact-counter check *)
  layer_metrics : metric list;  (** read from the first pass's spans *)
  self_ns : int;  (** sum of the first pass's layer self times *)
  wall_ns : int;  (** wall time of the first traced pass *)
  best_traced_ns : int;
  best_untraced_ns : int;
}

(* Untraced and traced passes of the same work, alternated (untraced,
   traced, untraced, traced) so that neither side alone runs on a colder
   heap or in a slower phase of the host. [read] turns the first traced
   pass and its spans into per-layer metrics; its coarse spans go to the
   trace file. The tracing overhead is the fastest traced pass minus the
   fastest untraced one. *)
let traced_passes ~workload ~untraced ~traced ~read =
  let time f =
    let t0 = now_ns () in
    let r = f () in
    (r, now_ns () - t0)
  in
  let (), u1 = time untraced in
  Layers.reset ();
  let first, w1 = time traced in
  let layer_metrics = read first in
  let self_ns = Layers.total_self_ns () in
  write_trace ~workload;
  let (), u2 = time untraced in
  Layers.reset ();
  let second, w2 = time traced in
  {
    first;
    second;
    layer_metrics;
    self_ns;
    wall_ns = w1;
    best_traced_ns = min w1 w2;
    best_untraced_ns = min u1 u2;
  }

let trace_metrics p ~check_ns ~exact =
  let ms ns = float ns /. 1e6 in
  [
    m "bench.check_ms" "ms" (ms check_ns);
    m "trace.wall_ms" "ms" (ms p.wall_ns);
    m "trace.untraced_ms" "ms" (ms p.best_untraced_ns);
    m "trace.overhead_ms" "ms" (ms (p.best_traced_ns - p.best_untraced_ns));
    m "trace.other_ms" "ms" (ms (p.wall_ns - p.self_ns));
    m "trace.accounted_fraction" "ratio" (ratio (float p.self_ns) (float p.wall_ns));
    m "trace.exact_counters_repeat" "count" (if exact then 1. else 0.);
  ]

(* ---- campaign workloads ---- *)

type cell = { key : Cache.key; model : Fault.model; retry : int option }

let cell_name c =
  Printf.sprintf "%s/%s/%s" c.key.Cache.workload
    (Scheme.name c.key.Cache.scheme)
    (Fault.model_name c.model)

(* Benchmark-major; every cell is one unit of a round. *)
let cells schemes models =
  List.concat_map
    (fun workload ->
      List.concat_map
        (fun scheme ->
          List.map
            (fun model ->
              {
                key =
                  Cache.key ~workload ~size:W.Fault ~scheme ~issue_width:2
                    ~delay:2 ();
                model;
                retry =
                  (if scheme = Scheme.Rollback then
                     Some Engine.default_retry_budget
                   else None);
              })
            models)
        schemes)
    (Registry.names ())

let detect_cells =
  cells
    [ Scheme.Noed; Scheme.Sced; Scheme.Dced; Scheme.Casted; Scheme.Dme ]
    [ Fault.Reg_bit; Fault.Mem ]

let recovery_cells = cells [ Scheme.Tmr; Scheme.Rollback ] [ Fault.Reg_bit ]

(* Trials per cell and round, the same in every cell of a workload. A
   trial that times out costs ten golden runs, so the work a seed draws
   varies; at 64 detection trials per cell the executed instructions per
   trial still varied by +-9% between seeds. *)
let detect_trials = 128
let recovery_trials = 32

(* Everything [Engine.campaign] memoizes per cell, filled before the
   first measured trial. *)
let campaign_setup ~jobs cells =
  let e = Engine.create ~jobs () in
  let cache = Engine.cache e in
  List.iter
    (fun c ->
      ignore (Engine.compile e c.key : Pipeline.compiled);
      ignore (Cache.decoded cache c.key : Decode.t);
      if c.retry = None then begin
        ignore (Cache.replay cache c.key : Replay.t);
        ignore (Cache.compiled cache c.key : Compile.t)
      end)
    cells;
  e

let campaign_cell ~seed ~trials c e =
  try Ok (Engine.campaign e ~seed ~model:c.model ~trials c.key) with ex -> Error ex

let campaign_round e ~seed ~trials cells =
  List.map (fun c -> campaign_cell ~seed ~trials c e) cells

(* The reference tally: a fresh compile run on the decoded interpreter
   with neither replay nor the compiled engine. *)
let reference_tally ~pool ~seed ~trials c =
  let k = c.key in
  let compiled =
    Pipeline.compile ~scheme:k.Cache.scheme ~issue_width:k.Cache.issue_width
      ~delay:k.Cache.delay
      ((workload k.Cache.workload).W.build k.Cache.size)
  in
  Mc.run ~pool ~seed ~model:c.model ~replay:false ~compile:false
    ?retry_budget:c.retry ~trials compiled.Pipeline.schedule

let same_tally (a : Mc.result) (b : Mc.result) =
  a.Mc.trials = b.Mc.trials
  && Mc.counts a = Mc.counts b
  && a.Mc.golden_cycles = b.Mc.golden_cycles
  && a.Mc.golden_dyn = b.Mc.golden_dyn
  && a.Mc.population = b.Mc.population

let campaign_e2e ~name ~jobs ~seed ~seconds ~trials cells =
  let setups = start_setups (fun () -> campaign_setup ~jobs cells) Engine.shutdown in
  let run =
    measure setups ~seconds (List.map (campaign_cell ~seed ~trials) cells)
  in
  let ops_per_s = rate (function Ok r -> r.Mc.trials | Error _ -> 0) run in
  let engine = current setups in
  let refs =
    Array.of_list
      (List.map (reference_tally ~pool:(Engine.pool engine) ~seed ~trials) cells)
  in
  let cells = Array.of_list cells in
  Engine.shutdown engine;
  let attempted = ref 0 and failed = ref 0 in
  List.iter
    (List.iteri (fun i got ->
         let c = cells.(i) in
         incr attempted;
         match got with
         | Ok r when same_tally r refs.(i) -> ()
         | Ok _ ->
             incr failed;
             Printf.printf "MISMATCH %s: tally differs from the reference\n"
               (cell_name c)
         | Error ex ->
             incr failed;
             Printf.printf "FAILED %s: %s\n" (cell_name c) (Printexc.to_string ex)))
    run.rounds;
  Printf.printf
    "%s: %d cells x %d trials per round, %d rounds in %.3f s (jobs %d, seed \
     %d)\n"
    name (Array.length cells) trials (List.length run.rounds) run.elapsed jobs seed;
  Printf.printf "  trials_per_s = %.1f\n" ops_per_s;
  emit ~attempted:!attempted ~failed:!failed
    [
      m "setup_s" "s" (setup_s setups);
      m "ops_per_s" "1/s" ops_per_s;
      m "peak_rss_mb" "MB" (peak_rss_mb ());
    ]

(* Per-trial accounting of one traced campaign pass. [exec_*] cover
   trials on the default path (prefix replay + compiled engine);
   [rec_*] cover rollback trials on the recovering interpreter. *)
type trial_counters = {
  mutable trials : int;
  mutable replayed : int;
  mutable suffix_sum : float;
  mutable exec_insns : int;
  mutable exec_words : float;
  mutable minor_gcs : int;
  mutable trial_ns : int list;
  mutable rec_trials : int;
  mutable rec_insns : int;
  mutable rec_retries : int;
  mutable rec_words : float;
  mutable rec_ns : int list;
}

let empty_trial_counters () =
  {
    trials = 0;
    replayed = 0;
    suffix_sum = 0.;
    exec_insns = 0;
    exec_words = 0.;
    minor_gcs = 0;
    trial_ns = [];
    rec_trials = 0;
    rec_insns = 0;
    rec_retries = 0;
    rec_words = 0.;
    rec_ns = [];
  }

(* How a cell's trials run: the path [Engine.campaign] picks for it. *)
type path =
  | Replayed of Replay.t * Compile.t
      (** golden-prefix replay on the compiled engine *)
  | Recovering of int
      (** rollback: the recovering interpreter, with this retry budget *)

type traced_cell = {
  cell : cell;
  decoded : Decode.t;
  path : path;
  golden : Mc.golden;
  classes : Mc.classification array;
}

(* One traced trial on the default path. Timestamps are taken inline
   and the counters are plain mutable fields, so the only allocation
   inside the [Gc.minor_words] window is the simulator's own. *)
let replayed_trial tc ls ~golden ~cache ~replay ~stage2 ~t0 ~t1 fault =
  let l_find, l_restore, l_exec, l_classify = ls in
  let snap = Replay.find replay fault in
  let t2 = now_ns () in
  Layers.add l_find ~t0:t1 ~t1:t2;
  (match snap with
  | Some s -> ignore (State.restore ~cache s : State.t * State.regfile)
  | None -> ());
  let t3 = now_ns () in
  Layers.add l_restore ~t0:t2 ~t1:t3;
  let fuel = golden.Mc.fuel in
  let w0 = Gc.minor_words () in
  let res =
    try
      Ok
        (match snap with
        | Some snapshot -> Simulator.run_compiled_replayed ~fault ~fuel ~snapshot stage2
        | None -> Simulator.run_compiled ~fault ~fuel stage2)
    with e -> Error e
  in
  let w1 = Gc.minor_words () in
  let t4 = now_ns () in
  Layers.add l_exec ~t0:t3 ~t1:t4;
  let cls = Mc.classify_result ~golden:golden.Mc.run res in
  let t5 = now_ns () in
  Layers.add l_classify ~t0:t4 ~t1:t5;
  tc.trials <- tc.trials + 1;
  tc.exec_words <- tc.exec_words +. (w1 -. w0);
  (* The standalone restore is tracing work the untraced trial does not
     do twice; leave it out of the trial time. *)
  tc.trial_ns <- (t5 - t0 - (t3 - t2)) :: tc.trial_ns;
  let start =
    match snap with
    | Some s ->
        tc.replayed <- tc.replayed + 1;
        tc.suffix_sum <- tc.suffix_sum +. Replay.suffix_fraction replay s;
        s.State.s_dyn
    | None ->
        tc.suffix_sum <- tc.suffix_sum +. 1.;
        0
  in
  (match res with
  | Ok r -> tc.exec_insns <- tc.exec_insns + r.Outcome.dyn_insns - start
  | Error _ -> ());
  cls

(* One traced rollback trial: the whole run, re-executions included. *)
let recovering_trial tc (l_recover, l_classify) ~golden ~decoded ~retry_budget
    ~t0 ~t1 fault =
  let w0 = Gc.minor_words () in
  let res =
    try
      Ok
        (Simulator.run_recovering ~fault ~fuel:golden.Mc.fuel ~retry_budget
           decoded)
    with e -> Error e
  in
  let w1 = Gc.minor_words () in
  let t2 = now_ns () in
  Layers.add l_recover ~t0:t1 ~t1:t2;
  let cls = Mc.classify_result ~golden:golden.Mc.run res in
  let t3 = now_ns () in
  Layers.add l_classify ~t0:t2 ~t1:t3;
  tc.rec_trials <- tc.rec_trials + 1;
  tc.rec_words <- tc.rec_words +. (w1 -. w0);
  tc.rec_ns <- (t3 - t0) :: tc.rec_ns;
  (match res with
  | Ok r -> (
      tc.rec_insns <- tc.rec_insns + r.Outcome.dyn_insns;
      match r.Outcome.termination with
      | Outcome.Recovered { retries; _ } ->
          tc.rec_retries <- tc.rec_retries + retries
      | _ -> ())
  | Error _ -> ());
  cls

(* One campaign workload decomposed layer by layer on this domain: the
   per-configuration set-up [Engine.campaign] memoizes, then every
   trial as [Montecarlo] runs it. *)
let traced_campaign_pass ~seed ~trials cells =
  let ctr = new_counters () in
  let tc = empty_trial_counters () in
  let l_draw = Layers.layer "sim.fault_draw" in
  let l_classify = Layers.layer "sim.classify" in
  let replayed_layers =
    ( Layers.layer "sim.find",
      Layers.layer "sim.restore",
      Layers.layer "sim.exec",
      l_classify )
  in
  let recovering_layers = (Layers.layer "sim.recover", l_classify) in
  let prepared = Hashtbl.create 64 in
  let prepare c =
    let k = c.key in
    match Hashtbl.find_opt prepared k with
    | Some p -> p
    | None ->
        let _, sched =
          traced_schedule ctr ~size:k.Cache.size ~workload:k.Cache.workload
            ~scheme:k.Cache.scheme ~issue_width:k.Cache.issue_width
            ~delay:k.Cache.delay
        in
        let decoded = Layers.span "sim.decode" (fun () -> Decode.of_schedule sched) in
        let path =
          match c.retry with
          | Some budget -> Recovering budget
          | None ->
              let r = Layers.span "sim.capture" (fun () -> Replay.capture decoded) in
              ctr.snapshots <- ctr.snapshots + Replay.count r;
              ctr.snapshot_bytes <- ctr.snapshot_bytes + Replay.total_bytes r;
              let stage2 =
                Layers.span "sim.stage2" (fun () -> Compile.of_decoded decoded)
              in
              Replayed (r, stage2)
        in
        Hashtbl.replace prepared k (decoded, path);
        (decoded, path)
  in
  let run_cell c =
    let decoded, path = prepare c in
    let golden =
      match path with
      | Replayed (r, _) -> Mc.golden_decoded ~replay_set:r decoded
      | Recovering _ ->
          (* A rollback campaign runs its own golden run: no replay set. *)
          let g = Layers.span "sim.golden" (fun () -> Mc.golden_decoded decoded) in
          ctr.golden_runs <- ctr.golden_runs + 1;
          ctr.golden_insns <- ctr.golden_insns + g.Mc.run.Outcome.dyn_insns;
          g
    in
    (* The engine runs no trial of a cell the model has no sites in. *)
    let n = if Fault.population_size c.model golden.Mc.pop = 0 then 0 else trials in
    let cache = decoded.Decode.config.Casted_machine.Config.cache in
    let gc0 = (Gc.quick_stat ()).Gc.minor_collections in
    let classes =
      Array.init n (fun index ->
          let t0 = now_ns () in
          let rng = Rng.create ~seed:(Rng.derive ~seed index) in
          let fault = Fault.random c.model rng ~population:golden.Mc.pop in
          let t1 = now_ns () in
          Layers.add l_draw ~t0 ~t1;
          match path with
          | Replayed (replay, stage2) ->
              replayed_trial tc replayed_layers ~golden ~cache ~replay ~stage2 ~t0
                ~t1 fault
          | Recovering retry_budget ->
              recovering_trial tc recovering_layers ~golden ~decoded ~retry_budget
                ~t0 ~t1 fault)
    in
    tc.minor_gcs <- tc.minor_gcs + (Gc.quick_stat ()).Gc.minor_collections - gc0;
    { cell = c; decoded; path; golden; classes }
  in
  let traced = List.map run_cell cells in
  (ctr, tc, traced)

(* Does every traced trial classify as the library's own trial function
   does, and every traced tally equal the engine's? Returns (operations
   checked, operations failed). *)
let check_campaign ~seed traced engine_results =
  let bad = ref 0 and checked = ref 0 in
  List.iter2
    (fun t engine_result ->
      let c = t.cell in
      Array.iteri
        (fun index cls ->
          incr checked;
          let lib =
            match t.path with
            | Replayed (_, compiled) ->
                Mc.trial_compiled ~model:c.model ~golden:t.golden ~seed ~index
                  ~compiled t.decoded
            | Recovering retry_budget ->
                Mc.trial_decoded ~retry_budget ~model:c.model ~golden:t.golden
                  ~seed ~index t.decoded
          in
          if lib <> cls then begin
            incr bad;
            Printf.printf "MISMATCH %s trial %d: traced %s, library %s\n"
              (cell_name c) index (Mc.class_name cls) (Mc.class_name lib)
          end)
        t.classes;
      incr checked;
      let mine = Mc.tally ~model:c.model ~golden:t.golden t.classes in
      match engine_result with
      | Ok r when same_tally r mine -> ()
      | _ ->
          incr bad;
          Printf.printf "MISMATCH %s: traced tally differs from the engine's\n"
            (cell_name c))
    traced engine_results;
  (!checked, !bad)

(* Per-trial metrics of a traced pass; read the layer table before the
   next pass resets it. Every rate and ratio comes with its base
   ([sim.trials], [sim.exec_insns], [sim.recover_trials]). *)
let trial_metrics tc =
  let trials_f = float tc.trials and rec_f = float tc.rec_trials in
  let us_per_trial name n = ratio (float (Layers.self_ns name) /. 1e3) n in
  let trial_us = Array.of_list (List.map (fun ns -> float ns /. 1e3) tc.trial_ns) in
  let rec_ns = List.fold_left ( + ) 0 tc.rec_ns in
  [
    m "sim.trials" "count" trials_f;
    m "sim.fault_draw_us" "us" (us_per_trial "sim.fault_draw" (trials_f +. rec_f));
    m "sim.find_us" "us" (us_per_trial "sim.find" trials_f);
    m "sim.restore_us" "us" (us_per_trial "sim.restore" trials_f);
    m "sim.exec_us" "us" (us_per_trial "sim.exec" trials_f);
    m "sim.classify_us" "us" (us_per_trial "sim.classify" (trials_f +. rec_f));
    m "sim.trial_us_p50" "us" (quantile trial_us 0.5);
    m "sim.trial_us_p99" "us" (quantile trial_us 0.99);
    m "sim.exec_insns" "count" (float tc.exec_insns);
    m "sim.ns_per_exec_insn" "ns"
      (ratio (float (Layers.self_ns "sim.exec")) (float tc.exec_insns));
    m "sim.exec_insns_per_trial" "count" (ratio (float tc.exec_insns) trials_f);
    m "sim.alloc_words_per_insn" "words" (ratio tc.exec_words (float tc.exec_insns));
    m "sim.minor_gcs_per_1k_trials" "count"
      (ratio (1000. *. float tc.minor_gcs) (trials_f +. rec_f));
    m "sim.replayed_fraction" "ratio" (ratio (float tc.replayed) trials_f);
    m "sim.suffix_fraction" "ratio" (ratio tc.suffix_sum trials_f);
    m "sim.recover_trials" "count" rec_f;
    m "sim.recover_trial_ms" "ms" (ratio (float rec_ns /. 1e6) rec_f);
    m "sim.recover_insns_per_trial" "count" (ratio (float tc.rec_insns) rec_f);
    m "sim.recover_retries_per_trial" "count" (ratio (float tc.rec_retries) rec_f);
    m "sim.recover_alloc_words_per_insn" "words"
      (ratio tc.rec_words (float tc.rec_insns));
  ]

let campaign_traced ~name ~jobs ~seed ~trials cells =
  (* The untraced path at jobs = nproc gives the substrate counters and
     the engine's tallies the traced pass must reproduce. *)
  let engine = campaign_setup ~jobs cells in
  let engine_results, sub =
    with_substrate (Engine.pool engine) (fun () ->
        campaign_round engine ~seed ~trials cells)
  in
  let sub = { sub with cache = Some (Cache.stats (Engine.cache engine)) } in
  Engine.shutdown engine;
  let p =
    traced_passes ~workload:name
      ~untraced:(fun () ->
        let e = campaign_setup ~jobs:1 cells in
        ignore (campaign_round e ~seed ~trials cells : _ list);
        Engine.shutdown e)
      ~traced:(fun () -> traced_campaign_pass ~seed ~trials cells)
      ~read:(fun (ctr, tc, _) -> setup_metrics ctr @ trial_metrics tc)
  in
  let _, tc, traced = p.first and _, tc2, _ = p.second in
  let exact =
    tc.exec_insns = tc2.exec_insns
    && tc.rec_insns = tc2.rec_insns
    && Int64.bits_of_float tc.exec_words = Int64.bits_of_float tc2.exec_words
    && Int64.bits_of_float tc.rec_words = Int64.bits_of_float tc2.rec_words
  in
  let t0 = now_ns () in
  let checked, bad = check_campaign ~seed traced engine_results in
  let check_ns = now_ns () - t0 in
  Printf.printf
    "%s traced: %d cells x %d trials at jobs 1 (substrate counters at jobs \
     %d, seed %d)\n"
    name (List.length cells) trials jobs seed;
  Printf.printf
    "exact counters, second traced pass %s: sim.exec_insns_per_trial, \
     sim.recover_insns_per_trial, sim.alloc_words_per_insn, \
     sim.recover_alloc_words_per_insn\n"
    (if exact then "repeated them bit for bit" else "DIFFERED");
  emit
    ~attempted:(checked + 1)
    ~failed:(bad + if exact then 0 else 1)
    (p.layer_metrics @ substrate_metrics sub
    @ [ m "verify.entries" "count" 0. ]
    @ trace_metrics p ~check_ns ~exact)

(* ---- perf_sweep ---- *)

let grid_issues = [ 1; 2; 3; 4 ]
let grid_delays = [ 1; 2; 3; 4 ]

let sweep_order ~seed =
  ( permute ~seed (Registry.names ()),
    permute ~seed:(seed + 1) grid_issues,
    permute ~seed:(seed + 2) grid_delays )

let point_key benchmark scheme issue delay =
  Printf.sprintf "%s/%s/i%d/d%d" benchmark (Scheme.name scheme) issue delay

(* The simulated statistics of one sweep point: everything a
   simulator-only change must leave identical. *)
let run_record (r : Outcome.run) =
  let c = r.Outcome.cache in
  let module H = Casted_cache.Hierarchy in
  Json.Obj
    [
      ("cycles", Json.Int r.Outcome.cycles);
      ("dyn_insns", Json.Int r.Outcome.dyn_insns);
      ("dyn_defs", Json.Int r.Outcome.dyn_defs);
      ("dyn_mem", Json.Int r.Outcome.dyn_mem);
      ("dyn_branches", Json.Int r.Outcome.dyn_branches);
      ("dyn_xreads", Json.Int r.Outcome.dyn_xreads);
      ("dyn_checks", Json.Int r.Outcome.dyn_checks);
      ("slots_total", Json.Int r.Outcome.slots_total);
      ("exit_code", Json.Int r.Outcome.exit_code);
      ("output_md5", Json.String (Digest.to_hex (Digest.string r.Outcome.output)));
      ("l1_hits", Json.Int c.H.l1_hits);
      ("l1_misses", Json.Int c.H.l1_misses);
      ("l2_hits", Json.Int c.H.l2_hits);
      ("l2_misses", Json.Int c.H.l2_misses);
      ("l3_hits", Json.Int c.H.l3_hits);
      ("l3_misses", Json.Int c.H.l3_misses);
      ("writebacks", Json.Int c.H.writebacks);
    ]

let sweep_reference_path = Filename.concat "perfbench" "sweep_reference.json"

let load_sweep_reference () =
  let ic = open_in_bin sweep_reference_path in
  let s =
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        really_input_string ic (in_channel_length ic))
  in
  match Json.parse s with
  | Ok (Json.Obj fields) ->
      let t = Hashtbl.create 512 in
      List.iter (fun (k, v) -> Hashtbl.replace t k v) fields;
      t
  | Ok _ | Error _ -> die "%s is not a JSON object" sweep_reference_path

let sweep_round ~jobs (benchmarks, issues, delays) =
  Engine.with_engine ~jobs (fun e ->
      Engine.sweep e ~size:W.Perf ~benchmarks ~issues ~delays ())

let check_point reference (p : Engine.sweep_point) =
  let k = point_key p.Engine.benchmark p.Engine.scheme p.Engine.issue p.Engine.delay in
  match Hashtbl.find_opt reference k with
  | Some want when want = run_record p.Engine.run -> true
  | Some _ ->
      Printf.printf "MISMATCH %s: simulated statistics differ from the record\n" k;
      false
  | None ->
      Printf.printf "MISMATCH %s: no recorded statistics\n" k;
      false

(* Paper values from EXPERIMENTS.md (Figs. 6-7), printed for context
   only: the kernels are synthetic and the model is unvalidated against
   hardware, so nothing is gated on them. *)
let print_headline points =
  let module P = Casted_report.Perf_sweep in
  let t =
    {
      P.points =
        List.map
          (fun (p : Engine.sweep_point) ->
            {
              P.benchmark = p.Engine.benchmark;
              scheme = p.Engine.scheme;
              issue = p.Engine.issue;
              delay = p.Engine.delay;
              cycles = p.Engine.run.Outcome.cycles;
              dyn_insns = p.Engine.run.Outcome.dyn_insns;
            })
          points;
      issues = grid_issues;
      delays = grid_delays;
      benchmarks = Registry.names ();
    }
  in
  let s = P.summarize t in
  Printf.printf "model context (not gated; paper values from EXPERIMENTS.md):\n";
  Printf.printf "  SCED   slowdown %.2f - %.2f (avg %.2f)   paper 1.34 - 2.22 (1.70)\n"
    s.P.sced_min s.P.sced_max s.P.sced_avg;
  Printf.printf "  DCED   slowdown %.2f - %.2f (avg %.2f)   paper 1.31 - 3.32 (2.10)\n"
    s.P.dced_min s.P.dced_max s.P.dced_avg;
  Printf.printf "  CASTED slowdown %.2f - %.2f (avg %.2f)   paper 1.19 - 2.10 (1.58)\n"
    s.P.casted_min s.P.casted_max s.P.casted_avg;
  Printf.printf
    "  avg slowdown reduction vs SCED / DCED: %.1f%% / %.1f%%   paper 7.5%% / \
     24.7%%\n"
    s.P.casted_vs_sced s.P.casted_vs_dced

(* Engine.sweep's grid, in the same order. *)
let sweep_points (benchmarks, issues, delays) =
  List.concat_map
    (fun b ->
      List.concat_map
        (fun i ->
          (b, Scheme.Noed, i, 1, 0)
          :: (b, Scheme.Sced, i, 1, 0)
          :: List.concat_map
               (fun d -> [ (b, Scheme.Dced, i, d, d); (b, Scheme.Casted, i, d, d) ])
               delays)
        issues)
    benchmarks

(* The input program of every unit of a round (one per sweep point or
   matrix entry), built once. The library entry points build their own
   copies inside the measured round; this times the construction the
   round's inputs take, so a change to the workload builders shows in
   [setup_s]. *)
let build_inputs size names =
  List.iter
    (fun name -> ignore ((workload name).W.build size : Casted_ir.Program.t))
    names

let sweep_e2e ~jobs ~seed ~seconds =
  let order = sweep_order ~seed in
  let benchmarks, issues, delays = order in
  (* Every round runs on the fresh engine of its own set-up, so it
     stands for one [casted sweep] invocation. *)
  let setups =
    start_setups
      (fun () ->
        let e = Engine.create ~jobs () in
        build_inputs W.Perf
          (List.map (fun (b, _, _, _, _) -> b) (sweep_points order));
        e)
      Engine.shutdown
  in
  let run =
    measure setups ~seconds
      (List.concat_map
         (fun b ->
           List.map
             (fun i e ->
               Engine.sweep e ~size:W.Perf ~benchmarks:[ b ] ~issues:[ i ] ~delays ())
             issues)
         benchmarks)
  in
  Engine.shutdown (current setups);
  let ops_per_s = rate List.length run in
  let rounds = List.map List.concat run.rounds in
  let reference = load_sweep_reference () in
  let attempted = ref 0 and failed = ref 0 in
  List.iter
    (List.iter (fun p ->
         incr attempted;
         if not (check_point reference p) then incr failed))
    rounds;
  print_headline (List.hd rounds);
  Printf.printf
    "perf_sweep: %d points per round, %d rounds in %.3f s (jobs %d, seed %d)\n"
    (List.length (List.hd rounds)) (List.length rounds) run.elapsed jobs seed;
  Printf.printf "  points_per_s = %.2f\n" ops_per_s;
  emit ~attempted:!attempted ~failed:!failed
    [
      m "setup_s" "s" (setup_s setups);
      m "ops_per_s" "1/s" ops_per_s;
      m "peak_rss_mb" "MB" (peak_rss_mb ());
    ]

let sweep_traced ~jobs ~seed =
  let order = sweep_order ~seed in
  let benchmarks, issues, delays = order in
  let engine_points, sub =
    Engine.with_engine ~jobs (fun e ->
        let pts, sub =
          with_substrate (Engine.pool e) (fun () ->
              Engine.sweep e ~size:W.Perf ~benchmarks ~issues ~delays ())
        in
        (pts, { sub with cache = Some (Cache.stats (Engine.cache e)) }))
  in
  let traced () =
    let ctr = new_counters () in
    let runs =
      List.map
        (fun (b, scheme, issue, compile_delay, delay) ->
          let _, sched =
            traced_schedule ctr ~size:W.Perf ~workload:b ~scheme
              ~issue_width:issue ~delay:compile_delay
          in
          let decoded = Layers.span "sim.decode" (fun () -> Decode.of_schedule sched) in
          let run = Layers.span "sim.golden" (fun () -> Simulator.run_decoded decoded) in
          ctr.golden_runs <- ctr.golden_runs + 1;
          ctr.golden_insns <- ctr.golden_insns + run.Outcome.dyn_insns;
          (point_key b scheme issue delay, run_record run))
        (sweep_points order)
    in
    (ctr, runs)
  in
  let p =
    traced_passes ~workload:"perf_sweep"
      ~untraced:(fun () -> ignore (sweep_round ~jobs:1 order : Engine.sweep_point list))
      ~traced
      ~read:(fun (ctr, _) -> setup_metrics ctr @ trial_metrics (empty_trial_counters ()))
  in
  let (ctr, runs), (ctr2, runs2) = (p.first, p.second) in
  let exact =
    runs = runs2 && ctr.golden_insns = ctr2.golden_insns && ctr.bundles = ctr2.bundles
  in
  let t0 = now_ns () in
  let reference = load_sweep_reference () in
  let bad = ref 0 in
  List.iter2
    (fun (k, record) (p : Engine.sweep_point) ->
      if
        k <> point_key p.Engine.benchmark p.Engine.scheme p.Engine.issue p.Engine.delay
        || record <> run_record p.Engine.run
      then begin
        incr bad;
        Printf.printf "MISMATCH %s: traced run differs from the engine's\n" k
      end
      else if not (check_point reference p) then incr bad)
    runs engine_points;
  let check_ns = now_ns () - t0 in
  Printf.printf
    "perf_sweep traced: %d points at jobs 1 (substrate counters at jobs %d, \
     seed %d)\n"
    (List.length runs) jobs seed;
  Printf.printf
    "exact counters, second traced pass %s: every point's statistics, \
     sim.golden_runs, sim.bundles, detect.insns_out\n"
    (if exact then "repeated them bit for bit" else "DIFFERED");
  emit
    ~attempted:(List.length runs + 1)
    ~failed:(!bad + if exact then 0 else 1)
    (p.layer_metrics @ substrate_metrics sub
    @ [ m "verify.entries" "count" 0. ]
    @ trace_metrics p ~check_ns ~exact)

(* ---- verify_matrix ---- *)

let verify_order ~seed =
  (permute ~seed (Registry.names ()), permute ~seed:(seed + 1) (Oracle.cells ()))

let entry_clean (e : Matrix.entry) = e.Matrix.diags = [] && e.Matrix.divergences = []

let verify_e2e ~jobs ~seed ~seconds =
  let benchmarks, cells = verify_order ~seed in
  let setups =
    start_setups
      (fun () ->
        let pool = Pool.create ~jobs () in
        build_inputs W.Fault
          (List.concat_map (fun b -> List.map (fun _ -> b) cells) benchmarks);
        pool)
      Pool.shutdown
  in
  let run =
    measure setups ~seconds
      (List.map (fun b pool -> Matrix.run ~pool ~benchmarks:[ b ] ~cells ()) benchmarks)
  in
  Pool.shutdown (current setups);
  let ops_per_s = rate List.length run in
  let per_unit = List.length cells in
  let attempted = ref 0 and failed = ref 0 in
  List.iter
    (List.iter (fun entries ->
         List.iter
           (fun e ->
             incr attempted;
             if not (entry_clean e) then begin
               incr failed;
               Format.printf "NOT CLEAN %a@." Matrix.pp_entry e
             end)
           entries;
         if List.length entries <> per_unit then begin
           incr failed;
           Printf.printf "MISMATCH: %d entries for one benchmark, expected %d\n"
             (List.length entries) per_unit
         end))
    run.rounds;
  Printf.printf
    "verify_matrix: %d entries per round, %d rounds in %.3f s (jobs %d, seed \
     %d)\n"
    (List.length benchmarks * per_unit)
    (List.length run.rounds) run.elapsed jobs seed;
  Printf.printf "  entries_per_s = %.3f\n" ops_per_s;
  emit ~attempted:!attempted ~failed:!failed
    [
      m "setup_s" "s" (setup_s setups);
      m "ops_per_s" "1/s" ops_per_s;
      m "peak_rss_mb" "MB" (peak_rss_mb ());
    ]

let verify_traced ~jobs ~seed =
  let benchmarks, cells = verify_order ~seed in
  let engine_entries, sub =
    Pool.with_pool ~jobs (fun pool ->
        with_substrate pool (fun () -> Matrix.run ~pool ~benchmarks ~cells ()))
  in
  let traced () =
    let ctr = new_counters () in
    let entries =
      List.concat_map
        (fun b ->
          List.map
            (fun (cell : Oracle.cell) ->
              let program, sched =
                traced_schedule ctr ~size:W.Fault ~workload:b
                  ~scheme:cell.Oracle.scheme ~issue_width:cell.Oracle.issue_width
                  ~delay:cell.Oracle.delay
              in
              let diags =
                Layers.span "verify.lint" (fun () ->
                    Lint.schedule ~scheme:cell.Oracle.scheme sched)
              in
              let divergences =
                Layers.span "verify.oracle" (fun () ->
                    let reference = Oracle.reference program in
                    Oracle.check_cell ~reference program cell)
              in
              (b, cell, program, sched, List.length diags, List.length divergences))
            cells)
        benchmarks
    in
    (ctr, entries)
  in
  let p =
    traced_passes ~workload:"verify_matrix"
      ~untraced:(fun () -> ignore (Matrix.run ~benchmarks ~cells () : Matrix.entry list))
      ~traced
      ~read:(fun (ctr, _) -> setup_metrics ctr @ trial_metrics (empty_trial_counters ()))
  in
  let (ctr, entries), (ctr2, entries2) = (p.first, p.second) in
  let outcome (b, cell, _, _, n_diags, n_divs) = (b, cell, n_diags, n_divs) in
  let exact =
    List.map outcome entries = List.map outcome entries2
    && ctr.insns_out = ctr2.insns_out
    && ctr.bundles = ctr2.bundles
  in
  let t0 = now_ns () in
  let bad = ref 0 in
  List.iter2
    (fun (b, cell, program, sched, n_diags, n_divs) (e : Matrix.entry) ->
      let lib =
        Pipeline.compile ~scheme:cell.Oracle.scheme
          ~issue_width:cell.Oracle.issue_width ~delay:cell.Oracle.delay program
      in
      if
        b <> e.Matrix.workload
        || cell <> e.Matrix.cell
        || fingerprint sched <> fingerprint lib.Pipeline.schedule
        || n_diags <> List.length e.Matrix.diags
        || n_divs <> List.length e.Matrix.divergences
        || not (entry_clean e)
      then begin
        incr bad;
        Format.printf "MISMATCH %s @@ %a: traced entry differs or is not clean@." b
          Oracle.pp_cell cell
      end)
    entries engine_entries;
  let check_ns = now_ns () - t0 in
  Printf.printf
    "verify_matrix traced: %d entries at jobs 1 (substrate counters at jobs \
     %d, seed %d)\n"
    (List.length entries) jobs seed;
  Printf.printf
    "exact counters, second traced pass %s: every entry's diagnostic and \
     divergence counts, verify.entries, sim.bundles, detect.insns_out\n"
    (if exact then "repeated them bit for bit" else "DIFFERED");
  emit
    ~attempted:(List.length entries + 1)
    ~failed:(!bad + if exact then 0 else 1)
    (p.layer_metrics @ substrate_metrics sub
    @ [ m "verify.entries" "count" (float (List.length entries)) ]
    @ trace_metrics p ~check_ns ~exact)

(* ---- entry point ---- *)

let record_sweep path =
  let points =
    Engine.with_engine (fun e -> Engine.sweep e ~size:W.Perf ())
  in
  let oc = open_out path in
  output_string oc "{\n";
  List.iteri
    (fun i (p : Engine.sweep_point) ->
      Printf.fprintf oc "%s%s: %s\n"
        (if i = 0 then "  " else ", ")
        (Json.to_string
           (Json.String
              (point_key p.Engine.benchmark p.Engine.scheme p.Engine.issue
                 p.Engine.delay)))
        (Json.to_string (run_record p.Engine.run)))
    points;
  output_string oc "}\n";
  close_out oc;
  Printf.printf "recorded %d sweep points to %s\n" (List.length points) path

let workloads =
  [ "detect_campaign"; "recovery_campaign"; "perf_sweep"; "verify_matrix" ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | [] -> List.rev acc
    | flag :: value :: rest when String.length flag > 2 && String.sub flag 0 2 = "--"
      ->
        parse ((flag, value) :: acc) rest
    | arg :: _ -> die "unexpected argument %S" arg
  in
  let opts = parse [] args in
  let get flag = List.assoc_opt flag opts in
  List.iter
    (fun (flag, _) ->
      if
        not
          (List.mem flag
             [ "--workload"; "--seed"; "--seconds"; "--trace"; "--record-sweep" ])
      then die "unknown option %s" flag)
    opts;
  match get "--record-sweep" with
  | Some path -> record_sweep path
  | None ->
      let int flag =
        match get flag with
        | None -> die "missing %s" flag
        | Some v -> (
            match int_of_string_opt v with
            | Some n -> n
            | None -> die "%s must be an integer (got %S)" flag v)
      in
      let name =
        match get "--workload" with
        | Some w when List.mem w workloads -> w
        | Some w ->
            die "unknown workload %S (one of: %s)" w (String.concat ", " workloads)
        | None -> die "missing --workload"
      in
      let seed = int "--seed" in
      let seconds = int "--seconds" in
      if seconds < 1 then die "--seconds must be >= 1";
      let trace =
        match int "--trace" with
        | 0 -> false
        | 1 -> true
        | n -> die "--trace must be 0 or 1 (got %d)" n
      in
      let jobs =
        match Pool.default_jobs () with Ok n -> n | Error msg -> die "%s" msg
      in
      let seconds = float seconds in
      (match (name, trace) with
      | "detect_campaign", false ->
          campaign_e2e ~name ~jobs ~seed ~seconds ~trials:detect_trials detect_cells
      | "detect_campaign", true ->
          campaign_traced ~name ~jobs ~seed ~trials:detect_trials detect_cells
      | "recovery_campaign", false ->
          campaign_e2e ~name ~jobs ~seed ~seconds ~trials:recovery_trials
            recovery_cells
      | "recovery_campaign", true ->
          campaign_traced ~name ~jobs ~seed ~trials:recovery_trials recovery_cells
      | "perf_sweep", false -> sweep_e2e ~jobs ~seed ~seconds
      | "perf_sweep", true -> sweep_traced ~jobs ~seed
      | "verify_matrix", false -> verify_e2e ~jobs ~seed ~seconds
      | _ -> verify_traced ~jobs ~seed);
      flush stdout
