(** Cycle-accurate lockstep VLIW simulator.

    Executes a scheduled program (the output of
    {!Casted_detect.Pipeline.compile}) bundle by bundle. All clusters
    issue in lockstep: a bundle's issue time is the maximum over its
    instructions' operand-ready times, where an operand produced on a
    different cluster arrives [delay] cycles late (the paper's
    inter-cluster register-file read). Dynamic stalls come from cache
    misses (Table-I hierarchy) and cross-cluster reads not visible to the
    static scheduler (block boundaries, call returns).

    Bundle semantics are VLIW-parallel: all operands are read before any
    write of the same bundle lands.

    Faults: when a {!Fault.t} is supplied, one dynamic event is
    corrupted according to the fault's model (§IV-C, generalised):
    register-slot bit flips and bursts right after write-back, a
    cache-line bit after the n-th memory access, an inverted direction
    on the n-th conditional branch, or a corrupted value on the n-th
    cross-cluster operand read. The run also counts each model's
    dynamic population ({!Outcome.run} [dyn_defs], [dyn_mem],
    [dyn_branches], [dyn_xreads]), which is how a campaign's golden run
    sizes the injection pool. *)

(** [run schedule] executes the program to termination.

    @param fault optional single transient fault to inject.
    @param fuel dynamic-instruction budget; exceeding it terminates the
      run with {!Outcome.Timeout} (the paper's simulator time-out).
    @param perfect_cache every access hits in L1 (ablation).
    @param profile per-block visit/cycle profile, filled during the run.
    @param with_mem_digest fill {!Outcome.run} [mem_digest] with a
      digest of the final memory image (default false: campaigns never
      pay for it; the differential oracle turns it on to compare whole
      memory images across schemes). *)
val run :
  ?fault:Fault.t ->
  ?fuel:int ->
  ?perfect_cache:bool ->
  ?profile:Profile.t ->
  ?with_mem_digest:bool ->
  Casted_sched.Schedule.t ->
  Outcome.run

(** [run_decoded decoded] executes a pre-decoded program
    ({!Decode.of_schedule}). Bit-identical to [run] on the source
    schedule — same {!Outcome.run} field for field — but skips the
    per-run decode work: [run sched] is exactly
    [run_decoded (Decode.of_schedule sched)]. The decoded program is
    read-only and safe to share across pool domains. Each executor
    domain also keeps a private scratch memory arena that is restored
    from [decoded.image] with one blit per run.

    This interpreter is the full-length reference the compiled engine
    is held to: the verify oracle, the golden fixture, the tests and the
    reference campaigns ([Montecarlo.run ~compile:false]) run it; golden
    runs, sweeps and trials run {!run_compiled}, and only the compiled
    engine replays from a golden-prefix snapshot
    ({!run_compiled_replayed}). *)
val run_decoded :
  ?fault:Fault.t ->
  ?fuel:int ->
  ?perfect_cache:bool ->
  ?profile:Profile.t ->
  ?with_mem_digest:bool ->
  Decode.t ->
  Outcome.run

(** [run_recovering ~retry_budget decoded] executes a rollback-hardened
    program ({!Casted_detect.Scheme.Rollback}): a {!State.snapshot} is
    taken at every checkpoint-flagged block top of the entry function
    (the region boundaries the rollback pass marked with
    {!Casted_ir.Opcode.Cpt}), and a fired check or machine trap no
    longer ends the run — the latest snapshot is restored and the
    suffix re-executed with the (transient) fault disarmed, up to
    [retry_budget] times. A run that completes after at least one
    rollback terminates with {!Outcome.Recovered}; a retry chain that
    keeps failing (the fault corrupted the checkpoint itself) exhausts
    the budget and reports the original failure. Cycles and dynamic
    instructions thrown away by failed attempts are folded into the
    final {!Outcome.run}, so recovery pays its re-execution cost.
    On a schedule with no checkpoint blocks this is plain
    [run_decoded]. Timeouts never retry: the fuel budget is global.
    This eager-snapshot form is the reference semantics that
    {!run_compiled_recovering} is held to. *)
val run_recovering :
  ?fault:Fault.t ->
  ?fuel:int ->
  ?with_mem_digest:bool ->
  retry_budget:int ->
  Decode.t ->
  Outcome.run

(** [run_compiled compiled] executes a stage-2-compiled program
    ({!Compile.of_decoded}) on the closure-threaded engine.
    Bit-identical to [run_decoded] on the underlying decoded program —
    same {!Outcome.run} field for field, and the same [perfect_cache]
    and [profile] modes — but with every per-instruction dispatch
    decision resolved at compile time; the verify oracle's cross-check
    of [run], [run_decoded], [run_compiled] and the compiled replay
    holds the engines to that contract. Campaigns, sweeps,
    single runs and replay capture compile once (memoized in
    [Engine.Cache]) and run on this path. *)
val run_compiled :
  ?fault:Fault.t ->
  ?fuel:int ->
  ?perfect_cache:bool ->
  ?profile:Profile.t ->
  ?with_mem_digest:bool ->
  Compile.t ->
  Outcome.run

(** [run_compiled_replayed ~snapshot compiled] restores [snapshot]
    (captured by {!Replay.capture}'s golden pass over the same program)
    and executes only the remaining suffix as threaded code — the one
    golden-prefix replay implementation. Bit-identical to
    [run_decoded ?fault ?fuel] on the underlying decoded program
    whenever the snapshot precedes the fault's trigger event (see
    {!Replay.find}): the prefix a full run would execute before the
    trigger is exactly the golden prefix the snapshot captured.
    Counters and cycle counts resume from the snapshot, so every
    {!Outcome.run} field reports whole-run totals. *)
val run_compiled_replayed :
  ?fault:Fault.t ->
  ?fuel:int ->
  ?with_mem_digest:bool ->
  snapshot:State.snapshot ->
  Compile.t ->
  Outcome.run

(** [run_compiled_recovering ~retry_budget compiled] is {!run_recovering}
    on the compiled engine ({!Compile.run_recovering}): same outcome
    field for field, with lazy checkpoints (a region head records a
    marker; a rollback rebuilds the checkpoint by re-execution) and,
    with [prefix], started from a golden-prefix snapshot. *)
val run_compiled_recovering :
  ?fault:Fault.t ->
  ?fuel:int ->
  ?with_mem_digest:bool ->
  ?prefix:Compile.prefix ->
  retry_budget:int ->
  Compile.t ->
  Outcome.run
