(** The unified experiment engine.

    Every experiment in the repo — a one-off compile, a golden
    simulation, a Monte-Carlo fault campaign, a full performance sweep —
    is a {!job} value submitted to an engine rather than an inline
    driver loop. The engine owns:

    - a {!Casted_exec.Pool} of worker domains that fans out the
      embarrassingly parallel parts (sweep points, campaign trials);
    - a {!Cache} of per-configuration artifacts (schedule compile,
      decoded and stage-2 programs, replay snapshot set) so
      configurations shared between jobs build each one exactly once;
    - per-job timing and throughput counters, rendered by
      {!utilisation}.

    {b Determinism contract.} Engine results never depend on the number
    of domains: sweep points are returned in grid order, and every
    campaign trial draws from an RNG seeded by
    [Rng.derive ~seed trial_index] (see {!Casted_sim.Montecarlo.trial}),
    so a run with [jobs = N] is bit-identical to [jobs = 1]. *)

type t

(** [create ~jobs ()] builds an engine over a fresh pool. [jobs]
    defaults to {!Casted_exec.Pool.default_jobs} (the [$CASTED_JOBS]
    override or the recommended domain count); raises
    [Invalid_argument] if that env knob is malformed. *)
val create : ?jobs:int -> unit -> t

val jobs : t -> int
val pool : t -> Casted_exec.Pool.t
val cache : t -> Cache.t

(** Shut the pool down, draining queued work. Idempotent. *)
val shutdown : t -> unit

(** [with_engine ?jobs f] runs [f] on a fresh engine and shuts it down
    afterwards, also on exception. *)
val with_engine : ?jobs:int -> (t -> 'a) -> 'a

(** {2 The job model} *)

type sweep_point = {
  benchmark : string;
  scheme : Casted_detect.Scheme.t;
  issue : int;
  delay : int;  (** 0 for the single-core schemes (NOED, SCED) *)
  run : Casted_sim.Outcome.run;
}

type job =
  | Compile of Cache.key  (** compile one configuration (cached) *)
  | Simulate of Cache.key  (** compile + golden run *)
  | Campaign of {
      spec : Cache.key;
      trials : int;
      seed : int;
      fuel_factor : int;
      model : Casted_sim.Fault.model;
      ci_halfwidth : float option;
          (** stop once the detected-rate 95% CI half-width (percentage
              points) is at or below this *)
    }  (** Monte-Carlo fault campaign; trials fan out over the pool *)
  | Sweep of {
      size : Casted_workloads.Workload.size;
      benchmarks : string list;
      issues : int list;
      delays : int list;
    }  (** the Figs. 6-8 grid; points fan out over the pool *)

type outcome =
  | Compiled of Casted_detect.Pipeline.compiled
  | Simulated of Casted_detect.Pipeline.compiled * Casted_sim.Outcome.run
  | Campaigned of Casted_sim.Montecarlo.result
  | Swept of sweep_point list

val run_job : t -> job -> outcome

(** Run jobs in submission order (each job parallelises internally). *)
val run_jobs : t -> job list -> outcome list

(** {2 Typed conveniences over {!run_job}} *)

val compile : t -> Cache.key -> Casted_detect.Pipeline.compiled

(** [simulate t key] runs [key]'s program once, fault-free, on the
    compiled engine ({!Cache.compiled}). *)
val simulate :
  t -> Cache.key -> Casted_detect.Pipeline.compiled * Casted_sim.Outcome.run

(** [campaign t ~trials spec] compiles [spec] (cached) and fans
    [trials] Monte-Carlo trials over the pool. Identical to the
    sequential {!Casted_sim.Montecarlo.run} with the same [seed];
    [model], [ci_halfwidth] and [replay] are forwarded to it. Trials run
    on the stage-2 closure-threaded engine
    ({!Casted_sim.Simulator.run_compiled}) through the engine cache's
    compiled program ({!Cache.compiled}); with [replay] on (the default)
    the golden-run snapshot set comes from the engine cache too
    ({!Cache.replay}), so campaigns revisiting a configuration share one
    compile and one capture. The interpreter reference is
    {!Casted_sim.Montecarlo.run_decoded} without [~compiled] on the
    cell's {!Cache.decoded} program — full length, bit-identical
    tallies.

    A {!Casted_detect.Scheme.Rollback} spec automatically runs every
    trial as a region-rollback run with [retry_budget] (default
    {!default_retry_budget}), with lazy checkpoints and prefix replay
    ({!Casted_sim.Simulator.run_compiled_recovering}). Pass
    [retry_budget] explicitly to override the budget (or to run any
    other scheme recovering).

    With [store] set the campaign becomes incremental and kill-tolerant:
    see {!campaign_stored}, of which this is the [.result] projection. *)
val campaign :
  t ->
  ?seed:int ->
  ?fuel_factor:int ->
  ?model:Casted_sim.Fault.model ->
  ?ci_halfwidth:float ->
  ?replay:bool ->
  ?retry_budget:int ->
  ?store:Casted_store.Store.t ->
  ?shard:int * int ->
  trials:int ->
  Cache.key ->
  Casted_sim.Montecarlo.result

(** Rollback budget {!campaign} uses when the spec's scheme is
    [Rollback] and no explicit [retry_budget] is given. *)
val default_retry_budget : int

(** {2 The persistent result store} *)

(** What a store-backed campaign actually did. [result] is the tally
    this process can vouch for: the cell's full tally when [complete],
    otherwise just this shard's share. [simulated] trials were run by
    this call; [served] came out of the store. *)
type stored_campaign = {
  result : Casted_sim.Montecarlo.result;
  simulated : int;  (** trials this call actually simulated *)
  served : int;  (** trials served from banked store entries *)
  complete : bool;
      (** [result] covers all [trials] of the cell (as opposed to one
          shard of a cell whose other shards are still outstanding) *)
}

(** [campaign_stored t ~store ~trials spec] is {!campaign} made
    incremental against an on-disk {!Casted_store.Store}:

    - {b full hit} — the store holds the cell at the identical identity
      tuple with [trials_done = trials], or (with [ci_halfwidth]) with a
      shorter banked tally on which the early stop fires
      ({!Casted_sim.Montecarlo.early_stopped}): the tally is served with
      {e zero} simulation, zero compiles, zero decodes.
    - {b partial hit} — banked [trials_done < trials]: simulation
      resumes at the banked trial index (the per-trial RNG derivation
      makes the union bit-identical to a cold run of [trials], early
      stop included) and the extended entry replaces the old one.
    - {b miss} — the cell is simulated and banked. A banked entry with
      {e more} trials than requested is left alone and the request
      simulated fresh (a prefix cannot be recovered from counts).

    Every simulating path banks the running tally after each finished
    64-trial chunk, so a campaign killed mid-run keeps its completed
    chunks; rerunning the same request resumes after the last banked
    one (a partial hit). This is the only way a campaign persists.

    The early-stop target is part of the store key
    ({!Casted_store.Store.key}), so an early-stopped cell never serves,
    or resumes from, a cell banked without that target.

    With [shard = (k, n)], this process simulates only the campaign
    chunks owned by shard [k] of [n] (absolute 64-trial grid, so the
    [n] shards partition the trial space exactly), banks the shard
    entry, and — if it completed the cell — merges all [n] shard
    entries into the full entry. [complete = false] means other shards
    are still outstanding; re-running any shard once they land (or
    {!Casted_store.Store.merge_shards}) produces the merged tally,
    bit-identical to an unsharded run. A killed shard worker resumes
    the same way as an unsharded campaign. Sharding cannot combine
    with [ci_halfwidth] ([Invalid_argument]). A resumed cell whose
    golden run disagrees with the banked entry raises
    [Invalid_argument] — the identity no longer pins the simulation.

    Without [store] this is exactly {!campaign} (plus the shard
    restriction when [shard] is given). *)
val campaign_stored :
  t ->
  ?seed:int ->
  ?fuel_factor:int ->
  ?model:Casted_sim.Fault.model ->
  ?ci_halfwidth:float ->
  ?replay:bool ->
  ?retry_budget:int ->
  ?store:Casted_store.Store.t ->
  ?shard:int * int ->
  trials:int ->
  Cache.key ->
  stored_campaign

(** [resimulate t ~model spec e] re-runs the campaign store entry [e]
    banked for [spec] under [model], without the store: a full entry's
    [trials_done]-trial prefix, or a shard entry's owned chunks up to the
    end of its last banked one — so a killed shard worker's partial
    entry is reproduced, not compared against its whole share; an
    early-stopped entry is re-run with its target, so it must also
    have stopped where the target says. What [casted store audit]
    checks each entry against. Raises
    [Invalid_argument] on a shard entry that is not a whole number of
    its chunks. *)
val resimulate :
  t ->
  model:Casted_sim.Fault.model ->
  Cache.key ->
  Casted_store.Store.entry ->
  Casted_sim.Montecarlo.result

(** The campaign identity string a store entry is keyed on:
    [Cache.identity spec ^ "/" ^ fault model name]. Pinned by golden
    tests alongside {!Cache.identity}. *)
val campaign_identity : Cache.key -> Casted_sim.Fault.model -> string

(** [sweep t ~size ()] runs the performance grid of the paper's
    Figs. 6-8: NOED and SCED once per issue width, DCED and CASTED per
    (issue, delay). Every point is one golden run on the compiled
    engine, through the point's memoized stage-2 program
    ({!Cache.compiled}). Points come back in deterministic grid
    order. *)
val sweep :
  t ->
  size:Casted_workloads.Workload.size ->
  ?benchmarks:string list ->
  ?issues:int list ->
  ?delays:int list ->
  unit ->
  sweep_point list

(** {2 Instrumentation} *)

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

val counters : t -> job_counters

(** Result-store traffic across this engine's store-backed campaigns
    (all zero when no campaign used a store). *)
type store_counters = {
  full_hits : int;  (** cells served entirely from the store *)
  partial_hits : int;  (** cells resumed from a banked prefix *)
  store_misses : int;  (** cells simulated from scratch *)
  store_writes : int;  (** entries written (new, extended or merged) *)
  trials_served : int;  (** trials that needed no simulation *)
  trials_simulated : int;  (** trials actually run by store campaigns *)
}

val store_counters : t -> store_counters

(** Multi-line human-readable summary: pool size and utilisation, task
    throughput, per-job-kind counts and times, cache hit rate, and —
    when a result store saw traffic — store hit/miss/trial counters. *)
val utilisation : t -> string
