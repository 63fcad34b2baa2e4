module Pool = Casted_exec.Pool
module Workload = Casted_workloads.Workload
module Registry = Casted_workloads.Registry
module Scheme = Casted_detect.Scheme
module Pipeline = Casted_detect.Pipeline
module Simulator = Casted_sim.Simulator
module Outcome = Casted_sim.Outcome
module Montecarlo = Casted_sim.Montecarlo

type job_counters = {
  compiles : int;
  compile_s : float;
  simulates : int;
  simulate_s : float;
  campaigns : int;
  campaign_s : float;
  sweeps : int;
  sweep_s : float;
}

let zero_counters =
  {
    compiles = 0;
    compile_s = 0.0;
    simulates = 0;
    simulate_s = 0.0;
    campaigns = 0;
    campaign_s = 0.0;
    sweeps = 0;
    sweep_s = 0.0;
  }

type store_counters = {
  full_hits : int;
  partial_hits : int;
  store_misses : int;
  store_writes : int;
  trials_served : int;
  trials_simulated : int;
}

let zero_store_counters =
  {
    full_hits = 0;
    partial_hits = 0;
    store_misses = 0;
    store_writes = 0;
    trials_served = 0;
    trials_simulated = 0;
  }

type t = {
  pool : Pool.t;
  cache : Cache.t;
  mutex : Mutex.t;
  mutable counts : job_counters;
  mutable store_counts : store_counters;
}

let create ?jobs () =
  let jobs =
    match jobs with
    | Some n -> n
    | None -> (
        match Pool.default_jobs () with
        | Ok n -> n
        | Error msg -> invalid_arg ("Engine.create: " ^ msg))
  in
  {
    pool = Pool.create ~jobs ();
    cache = Cache.create ();
    mutex = Mutex.create ();
    counts = zero_counters;
    store_counts = zero_store_counters;
  }

let jobs t = Pool.jobs t.pool
let pool t = t.pool
let cache t = t.cache
let shutdown t = Pool.shutdown t.pool

let with_engine ?jobs f =
  let t = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let timed t kind f =
  let span_name =
    match kind with
    | `Compile -> "engine.compile"
    | `Simulate -> "engine.simulate"
    | `Campaign -> "engine.campaign"
    | `Sweep -> "engine.sweep"
  in
  let f () = Casted_obs.Trace.with_span ~cat:"engine" span_name f in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let dt = Unix.gettimeofday () -. t0 in
  Mutex.lock t.mutex;
  let c = t.counts in
  t.counts <-
    (match kind with
    | `Compile -> { c with compiles = c.compiles + 1; compile_s = c.compile_s +. dt }
    | `Simulate ->
        { c with simulates = c.simulates + 1; simulate_s = c.simulate_s +. dt }
    | `Campaign ->
        { c with campaigns = c.campaigns + 1; campaign_s = c.campaign_s +. dt }
    | `Sweep -> { c with sweeps = c.sweeps + 1; sweep_s = c.sweep_s +. dt });
  Mutex.unlock t.mutex;
  r

type sweep_point = {
  benchmark : string;
  scheme : Scheme.t;
  issue : int;
  delay : int;
  run : Outcome.run;
}

type job =
  | Compile of Cache.key
  | Simulate of Cache.key
  | Campaign of {
      spec : Cache.key;
      trials : int;
      seed : int;
      fuel_factor : int;
      model : Casted_sim.Fault.model;
      ci_halfwidth : float option;
    }
  | Sweep of {
      size : Workload.size;
      benchmarks : string list;
      issues : int list;
      delays : int list;
    }

type outcome =
  | Compiled of Pipeline.compiled
  | Simulated of Pipeline.compiled * Outcome.run
  | Campaigned of Montecarlo.result
  | Swept of sweep_point list

let compile t key = timed t `Compile (fun () -> Cache.compile t.cache key)

let simulate t key =
  let compiled = compile t key in
  let stage2 = Cache.compiled t.cache key in
  let run = timed t `Simulate (fun () -> Simulator.run_compiled stage2) in
  (compiled, run)

(* Rollback campaigns run every trial as a region-rollback run with
   this retry budget (a fault that keeps re-failing after this many
   restores reports its original failure). *)
let default_retry_budget = 3

(* Resolve the per-scheme recovery default: an explicit budget always
   wins, a Rollback spec gets the engine default, everything else runs
   without a recovery loop. *)
let resolve_retry_budget key = function
  | Some _ as b -> b
  | None ->
      if key.Cache.scheme = Scheme.Rollback then Some default_retry_budget
      else None

let campaign_identity key model =
  Printf.sprintf "%s/%s" (Cache.identity key)
    (Casted_sim.Fault.model_name model)

type stored_campaign = {
  result : Montecarlo.result;
  simulated : int;
  served : int;
  complete : bool;
}

let bump_store t f =
  Mutex.lock t.mutex;
  t.store_counts <- f t.store_counts;
  Mutex.unlock t.mutex

module Store = Casted_store.Store

(* A store entry only round-trips into a campaign spec when the key has
   nothing beyond the explicit coordinates (default pass options) —
   exactly the keys the CLI builds. Anything else persists fine but
   cannot be audited or re-enqueued from the entry alone. *)
let spec_of_key (key : Cache.key) model =
  if
    key.Cache.options = Casted_detect.Options.default
    && key.Cache.bug_options = None
    && not key.Cache.optimize
  then
    Some
      {
        Store.workload = key.Cache.workload;
        size = Workload.size_name key.Cache.size;
        scheme = Scheme.name key.Cache.scheme;
        issue = key.Cache.issue_width;
        delay = key.Cache.delay;
        model = Casted_sim.Fault.model_name model;
      }
  else None

let result_of_entry ~model (e : Store.entry) =
  let name = Casted_sim.Fault.model_name model in
  if not (String.equal e.Store.model name) then
    invalid_arg
      (Printf.sprintf
         "Engine.campaign: store entry for %S was tallied under fault model \
          %s, not %s — corrupt store"
         (Store.address e.Store.key) e.Store.model name);
  Montecarlo.of_counts ~model ~golden_cycles:e.Store.golden_cycles
    ~golden_dyn:e.Store.golden_dyn ~population:e.Store.population
    e.Store.counts

let entry_of_result ~spec (skey : Store.key) (r : Montecarlo.result) =
  {
    Store.key = skey;
    trials_done = r.Montecarlo.trials;
    counts = Montecarlo.counts r;
    golden_cycles = r.Montecarlo.golden_cycles;
    golden_dyn = r.Montecarlo.golden_dyn;
    population = r.Montecarlo.population;
    model = Casted_sim.Fault.model_name r.Montecarlo.model;
    spec;
  }

(* A resumed or re-simulated cell must agree with the banked entry
   about its golden run: a mismatch means the identity tuple no longer
   pins the simulation (a silent simulator change, or a corrupt store)
   and merging the tallies would be meaningless. *)
let check_golden_agreement ~what (e : Store.entry) (r : Montecarlo.result) =
  if
    e.Store.golden_cycles <> r.Montecarlo.golden_cycles
    || e.Store.golden_dyn <> r.Montecarlo.golden_dyn
    || e.Store.population <> r.Montecarlo.population
  then
    invalid_arg
      (Printf.sprintf
         "Engine.campaign: %s: store entry %S banked a golden run of \
          %d cycles / %d insns / population %d but this build simulates \
          %d / %d / %d — the identity no longer pins the simulation; \
          refusing to merge (run `casted store audit`)"
         what
         (Store.address e.Store.key)
         e.Store.golden_cycles e.Store.golden_dyn e.Store.population
         r.Montecarlo.golden_cycles r.Montecarlo.golden_dyn
         r.Montecarlo.population)

let store_fail msg = invalid_arg ("Engine.campaign: result store: " ^ msg)
let store_get = function Ok v -> v | Error msg -> store_fail msg

(* The absolute 64-trial chunk grid (see Montecarlo): shard [k] of [n]
   owns the chunks whose index is congruent to [k] mod [n]. A banked
   partial shard entry holds a whole number of owned chunks, so its
   resume point is found by walking the grid until the owned-trial
   count matches the banked tally. *)
let owned_chunks ~shard:(k, n) ~trials =
  let chunk = Montecarlo.chunk_trials in
  let rec go lo acc =
    if lo >= trials then List.rev acc
    else
      let hi = min trials (lo + chunk) in
      go hi (if lo / chunk mod n = k then (lo, hi) :: acc else acc)
  in
  go 0 []

let shard_share ~shard ~trials =
  List.fold_left
    (fun acc (lo, hi) -> acc + (hi - lo))
    0
    (owned_chunks ~shard ~trials)

(* Trial index at which a partial shard tally of [banked] owned trials
   resumes: the end of the owned chunk where the running count reaches
   [banked]. The partial entries written by the campaign's bank hook
   always land on chunk boundaries; anything else is a corrupt store. *)
let shard_resume_index ~shard ~trials banked =
  let rec go acc = function
    | _ when acc = banked -> 0
    | [] ->
        invalid_arg
          (Printf.sprintf
             "Engine.campaign: partial shard entry banked %d trials, more \
              than the shard owns — corrupt store"
             banked)
    | (lo, hi) :: rest ->
        let acc = acc + (hi - lo) in
        if acc = banked then hi
        else if acc > banked then
          invalid_arg
            (Printf.sprintf
               "Engine.campaign: partial shard entry banked %d trials, not \
                a whole number of 64-trial chunks — corrupt store"
               banked)
        else go acc rest
  in
  go 0 (owned_chunks ~shard ~trials)

let campaign_stored t ?(seed = 0xCA57ED) ?(fuel_factor = 10)
    ?(model = Casted_sim.Fault.Reg_bit) ?ci_halfwidth ?(replay = true)
    ?retry_budget ?store ?(shard = (0, 1)) ~trials key =
  let retry_budget = resolve_retry_budget key retry_budget in
  (* Compile (cached) under the compile timer, then hand the memoized
     decoded program — and, with replay on, the memoized golden-run
     snapshot set, plus the memoized stage-2 compiled program — to the
     campaign: thousands of trials, one decode, one capture, one
     stage-2 compile, shared read-only across pool domains and across
     campaigns revisiting this configuration. The store's full-hit path
     never gets here: a banked tally costs no compile, no decode, no
     golden run. *)
  let simulate ?prior ?bank ~shard n_trials =
    let (_ : Pipeline.compiled) = compile t key in
    let decoded = Cache.decoded t.cache key in
    let replay_set =
      if replay then Some (Cache.replay t.cache key) else None
    in
    let compiled = Cache.compiled t.cache key in
    timed t `Campaign (fun () ->
        Montecarlo.run_decoded ~pool:t.pool ~seed ~fuel_factor ~model
          ?ci_halfwidth ?replay_set ~compiled ?retry_budget ~shard
          ?prior ?bank ~trials:n_trials decoded)
  in
  match store with
  | None ->
      let result = simulate ~shard trials in
      {
        result;
        simulated = result.Montecarlo.trials;
        served = 0;
        complete = shard = (0, 1);
      }
  | Some s ->
      let retry_for_store = Option.value retry_budget ~default:(-1) in
      let skey =
        Store.key ~retry_budget:retry_for_store ~shard ?ci_halfwidth
          ~identity:(campaign_identity key model) ~seed ~fuel_factor ~trials
          ()
      in
      let spec = spec_of_key key model in
      let serve ?(simulated = 0) (e : Store.entry) ~complete =
        {
          result = result_of_entry ~model e;
          simulated;
          served = e.Store.trials_done - simulated;
          complete;
        }
      in
      (* Bank the running tally at every finished chunk, so a killed
         campaign's completed chunks survive and a rerun resumes after
         the last one. *)
      let bank ~next:_ r =
        Store.put s (entry_of_result ~spec skey r);
        bump_store t (fun c -> { c with store_writes = c.store_writes + 1 })
      in
      let write_merged () =
        (* All shards banked: publish the summed tally as the cell's
           full entry so every later lookup is a single-read hit. *)
        match
          store_get (Store.merge_shards ~chunk:Montecarlo.chunk_trials s skey)
        with
        | None -> None
        | Some merged ->
            Store.put s merged;
            bump_store t (fun c ->
                { c with store_writes = c.store_writes + 1 });
            Some merged
      in
      let full_hit (e : Store.entry) =
        bump_store t (fun c ->
            {
              c with
              full_hits = c.full_hits + 1;
              trials_served = c.trials_served + e.Store.trials_done;
            });
        Casted_obs.Metrics.incr "engine.store.full_hits";
        serve e ~complete:true
      in
      if snd shard = 1 then begin
        (* A banked prefix is the whole answer when it reaches [trials]
           or when the early stop fires on it: the uninterrupted
           campaign would have stopped right there. *)
        let finished (e : Store.entry) =
          e.Store.trials_done = trials
          || e.Store.trials_done < trials
             &&
             match ci_halfwidth with
             | Some ci_halfwidth ->
                 Montecarlo.early_stopped ~ci_halfwidth
                   (result_of_entry ~model e)
             | None -> false
        in
        match store_get (Store.find s skey) with
        | Some e when finished e -> full_hit e
        | Some e when e.Store.trials_done < trials ->
            (* Incremental fill: resume from the banked tally, banking
               every further chunk, then extend the entry. *)
            let result =
              simulate ~shard
                ~prior:(e.Store.trials_done, e.Store.counts)
                ~bank trials
            in
            check_golden_agreement ~what:"incremental resume" e result;
            Store.put s (entry_of_result ~spec skey result);
            let simulated = result.Montecarlo.trials - e.Store.trials_done in
            bump_store t (fun c ->
                {
                  c with
                  partial_hits = c.partial_hits + 1;
                  store_writes = c.store_writes + 1;
                  trials_served = c.trials_served + e.Store.trials_done;
                  trials_simulated = c.trials_simulated + simulated;
                });
            Casted_obs.Metrics.incr "engine.store.partial_hits";
            {
              result;
              simulated;
              served = e.Store.trials_done;
              complete = true;
            }
        | Some e ->
            (* The banked tally covers MORE trials than requested; the
               first [trials] of it cannot be recovered from counts.
               Simulate the request fresh and leave the richer entry
               alone (no banking: it would overwrite it). *)
            let result = simulate ~shard trials in
            check_golden_agreement ~what:"oversized entry" e result;
            bump_store t (fun c ->
                {
                  c with
                  store_misses = c.store_misses + 1;
                  trials_simulated =
                    c.trials_simulated + result.Montecarlo.trials;
                });
            Casted_obs.Metrics.incr "engine.store.misses";
            {
              result;
              simulated = result.Montecarlo.trials;
              served = 0;
              complete = true;
            }
        | None -> (
            (* Absent cell — but its shards may already cover it. *)
            match write_merged () with
            | Some merged -> full_hit merged
            | None ->
                let result = simulate ~shard ~bank trials in
                Store.put s (entry_of_result ~spec skey result);
                bump_store t (fun c ->
                    {
                      c with
                      store_misses = c.store_misses + 1;
                      store_writes = c.store_writes + 1;
                      trials_simulated =
                        c.trials_simulated + result.Montecarlo.trials;
                    });
                Casted_obs.Metrics.incr "engine.store.misses";
                {
                  result;
                  simulated = result.Montecarlo.trials;
                  served = 0;
                  complete = true;
                })
      end
      else begin
        (* Shard worker: serve the cell if it is already complete,
           otherwise fill this shard — banking the partial tally at
           every owned 64-trial chunk so a killed worker's finished
           chunks survive — and merge if that was the last one. *)
        let share = shard_share ~shard ~trials in
        let full_key = { skey with Store.shard = (0, 1) } in
        match store_get (Store.find s full_key) with
        | Some e when e.Store.trials_done = trials -> full_hit e
        | _ -> (
            match store_get (Store.find s skey) with
            | Some own when own.Store.trials_done = share -> (
                (* This shard is banked in full; the cell completes
                   when the others land. *)
                bump_store t (fun c ->
                    {
                      c with
                      full_hits = c.full_hits + 1;
                      trials_served = c.trials_served + own.Store.trials_done;
                    });
                Casted_obs.Metrics.incr "engine.store.full_hits";
                match write_merged () with
                | Some merged -> serve merged ~complete:true
                | None -> serve own ~complete:false)
            | Some own -> (
                (* Partial shard entry — a previous worker was killed
                   mid-campaign. Resume after its last banked chunk. *)
                let start =
                  shard_resume_index ~shard ~trials own.Store.trials_done
                in
                let result =
                  simulate ~shard ~prior:(start, own.Store.counts) ~bank
                    trials
                in
                check_golden_agreement ~what:"partial shard resume" own
                  result;
                Store.put s (entry_of_result ~spec skey result);
                bump_store t (fun c ->
                    {
                      c with
                      partial_hits = c.partial_hits + 1;
                      store_writes = c.store_writes + 1;
                      trials_served = c.trials_served + own.Store.trials_done;
                      trials_simulated =
                        c.trials_simulated
                        + (share - own.Store.trials_done);
                    });
                Casted_obs.Metrics.incr "engine.store.partial_hits";
                let simulated = share - own.Store.trials_done in
                match write_merged () with
                | Some merged ->
                    {
                      result = result_of_entry ~model merged;
                      simulated;
                      served = trials - simulated;
                      complete = true;
                    }
                | None ->
                    {
                      result;
                      simulated;
                      served = own.Store.trials_done;
                      complete = false;
                    })
            | None -> (
                let result = simulate ~shard ~bank trials in
                Store.put s (entry_of_result ~spec skey result);
                bump_store t (fun c ->
                    {
                      c with
                      store_misses = c.store_misses + 1;
                      store_writes = c.store_writes + 1;
                      trials_simulated =
                        c.trials_simulated + result.Montecarlo.trials;
                    });
                Casted_obs.Metrics.incr "engine.store.misses";
                match write_merged () with
                | Some merged ->
                    {
                      result = result_of_entry ~model merged;
                      simulated = result.Montecarlo.trials;
                      served = trials - result.Montecarlo.trials;
                      complete = true;
                    }
                | None ->
                    {
                      result;
                      simulated = result.Montecarlo.trials;
                      served = 0;
                      complete = false;
                    }))
      end

let campaign t ?seed ?fuel_factor ?model ?ci_halfwidth ?replay ?retry_budget
    ?store ?shard ~trials key =
  (campaign_stored t ?seed ?fuel_factor ?model ?ci_halfwidth ?replay
     ?retry_budget ?store ?shard ~trials key)
    .result

(* What [casted store audit] compares against: the campaign [e]'s key
   describes, cut to what it banked — a full entry's prefix, or a shard
   entry's owned chunks up to its last banked one (a killed worker's
   partial entry holds fewer than its share). An early-stopped entry is
   re-run with its target, so one banked past its stopping point
   mismatches. *)
let resimulate t ~model key (e : Store.entry) =
  let k = e.Store.key in
  let shard = k.Store.shard in
  let trials =
    if snd shard = 1 then e.Store.trials_done
    else shard_resume_index ~shard ~trials:k.Store.trials e.Store.trials_done
  in
  let retry_budget =
    if k.Store.retry_budget < 0 then None else Some k.Store.retry_budget
  in
  campaign t ~seed:k.Store.seed ~fuel_factor:k.Store.fuel_factor ~model
    ?ci_halfwidth:k.Store.ci_halfwidth ?retry_budget ~shard ~trials key

(* One grid cell: NOED/SCED are single-core, so they are measured once
   per issue width (compiled at delay 1, recorded as delay 0, like the
   paper's figures); DCED/CASTED vary over the delay axis. *)
let sweep_specs ~size ~benchmarks ~issues ~delays =
  List.concat_map
    (fun benchmark ->
      (match Registry.find benchmark with
      | Some _ -> ()
      | None -> invalid_arg ("Engine.sweep: unknown benchmark " ^ benchmark));
      List.concat_map
        (fun issue ->
          let spec scheme ~compile_delay ~record_delay =
            ( Cache.key ~workload:benchmark ~size ~scheme ~issue_width:issue
                ~delay:compile_delay (),
              record_delay )
          in
          spec Scheme.Noed ~compile_delay:1 ~record_delay:0
          :: spec Scheme.Sced ~compile_delay:1 ~record_delay:0
          :: List.concat_map
               (fun delay ->
                 [
                   spec Scheme.Dced ~compile_delay:delay ~record_delay:delay;
                   spec Scheme.Casted ~compile_delay:delay ~record_delay:delay;
                 ])
               delays)
        issues)
    benchmarks

let sweep t ~size ?benchmarks ?(issues = [ 1; 2; 3; 4 ])
    ?(delays = [ 1; 2; 3; 4 ]) () =
  let benchmarks =
    match benchmarks with Some b -> b | None -> Registry.names ()
  in
  let specs =
    Array.of_list (sweep_specs ~size ~benchmarks ~issues ~delays)
  in
  timed t `Sweep (fun () ->
      Array.to_list
        (Pool.map t.pool
           (fun ((key : Cache.key), record_delay) ->
             let run = Simulator.run_compiled (Cache.compiled t.cache key) in
             (match run.Outcome.termination with
             | Outcome.Exit 0 -> ()
             | term ->
                 invalid_arg
                   (Format.asprintf "Engine.sweep: %a: %a" Cache.pp_key key
                      Outcome.pp_termination term));
             {
               benchmark = key.Cache.workload;
               scheme = key.Cache.scheme;
               issue = key.Cache.issue_width;
               delay = record_delay;
               run;
             })
           specs))

let run_job t = function
  | Compile key -> Compiled (compile t key)
  | Simulate key ->
      let compiled, run = simulate t key in
      Simulated (compiled, run)
  | Campaign { spec; trials; seed; fuel_factor; model; ci_halfwidth } ->
      Campaigned
        (campaign t ~seed ~fuel_factor ~model ?ci_halfwidth ~trials spec)
  | Sweep { size; benchmarks; issues; delays } ->
      Swept (sweep t ~size ~benchmarks ~issues ~delays ())

let run_jobs t jobs = List.map (run_job t) jobs

let counters t =
  Mutex.lock t.mutex;
  let c = t.counts in
  Mutex.unlock t.mutex;
  c

let store_counters t =
  Mutex.lock t.mutex;
  let c = t.store_counts in
  Mutex.unlock t.mutex;
  c

let utilisation t =
  let s = Pool.stats t.pool in
  let c = counters t in
  let cs = Cache.stats t.cache in
  let throughput =
    if s.Pool.wall_s > 0.0 then float_of_int s.Pool.tasks /. s.Pool.wall_s
    else 0.0
  in
  let kind name n secs =
    if n = 0 then None else Some (Printf.sprintf "%d %s (%.1fs)" n name secs)
  in
  let jobs_line =
    match
      List.filter_map Fun.id
        [
          kind "compiles" c.compiles c.compile_s;
          kind "simulates" c.simulates c.simulate_s;
          kind "campaigns" c.campaigns c.campaign_s;
          kind "sweeps" c.sweeps c.sweep_s;
        ]
    with
    | [] -> "jobs:    none"
    | parts -> "jobs:    " ^ String.concat ", " parts
  in
  let sc = store_counters t in
  let store_lines =
    if sc = zero_store_counters then []
    else
      [
        Printf.sprintf
          "store:   %d full hits, %d partial, %d misses, %d writes — %d \
           trials served, %d simulated"
          sc.full_hits sc.partial_hits sc.store_misses sc.store_writes
          sc.trials_served sc.trials_simulated;
      ]
  in
  String.concat "\n"
    ([
       Printf.sprintf
         "engine:  %d jobs (%d worker domains), %d tasks, %.1f tasks/s"
         s.Pool.jobs s.Pool.domains s.Pool.tasks throughput;
       Printf.sprintf "busy:    %.1fs over %.1fs wall, utilisation %.0f%%"
         s.Pool.busy_s s.Pool.wall_s
         (100.0 *. Pool.utilisation s);
       jobs_line;
       Printf.sprintf
         "cache:   %d cells; hits/builds: schedule %d/%d, decode %d/%d, \
          stage-2 %d/%d, capture %d/%d"
         cs.Cache.entries cs.Cache.hits cs.Cache.misses cs.Cache.decoded_hits
         cs.Cache.decoded_misses cs.Cache.compiled_hits cs.Cache.compiled_misses
         cs.Cache.replay_hits cs.Cache.replay_misses;
     ]
    @ store_lines @ [ "" ])
