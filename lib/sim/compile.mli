(** Stage-2 compilation of a pre-decoded program into threaded code:
    one pre-bound closure per instruction, with the opcode arm, operand
    register indices and classes, latency, immediates, branch/callee
    targets and fault-site hooks all resolved at compile time. The hot
    loop is a flat array walk — no per-instruction opcode or class
    dispatch, no fault-option matching, no bounds checks (proven at
    compile time). It is not allocation-free: boxed [int64] register
    values, call frames and the like allocate about 8 words per executed
    instruction (perfbench's [sim.alloc_words_per_insn] measures 7-8).

    Outcomes are bit-identical to the interpreter ([Simulator.run_decoded]):
    both engines mutate the same [State.t] with the same event ordering,
    and the verify oracle cross-checks them over the whole example
    matrix. Compiled programs are immutable and domain-safe: compile
    once, run from any number of domains concurrently (each run carries
    its own [State.t]). *)

type t
(** A compiled program: the decoded form plus per-function closure
    arrays. Safe to share read-only across domains. *)

val of_decoded : Decode.t -> t
(** Lower a decoded program to threaded code. Costs one pass over the
    program; memoized per schedule in [Engine.Cache]. *)

val of_schedule : Casted_sched.Schedule.t -> t
(** [of_decoded (Decode.of_schedule sched)]: decode and lower in one
    step, for a one-off run. *)

val decoded : t -> Decode.t
(** The decoded program this was compiled from (shared, not copied). *)

val run :
  ?fault:Fault.t ->
  ?fuel:int ->
  ?perfect_cache:bool ->
  ?profile:Profile.t ->
  ?with_mem_digest:bool ->
  ?capture:(State.t -> State.regfile -> int -> unit) ->
  t ->
  Outcome.run
(** Execute a compiled program from a fresh machine state. Same
    semantics and same results as [Simulator.run_decoded] on the
    underlying decoded program, including its [perfect_cache] (every
    access hits in L1) and [profile] (one visit/cycle record per
    completed block, at any call depth) modes.

    @param capture called at every entry-function block-loop top where
      the call stack is empty (depth 1) with the machine state, the
      entry register file and the block index about to execute — the
      only program points where {!State.snapshot} is valid. The golden
      pass of {!Replay.capture} uses it to record snapshots; a hook
      that only copies state leaves the run bit-identical.

    [capture] and [profile] cost one test each per executed block and
    [perfect_cache] nothing, so a trial pays three predictable branches
    per block (these two and the rollback region-head flag). *)

val run_replayed :
  ?fault:Fault.t ->
  ?fuel:int ->
  ?with_mem_digest:bool ->
  snapshot:State.snapshot ->
  t ->
  Outcome.run
(** Restore a golden-prefix snapshot (from {!Replay.capture}) and
    execute only the suffix on the compiled path — the one replay
    implementation. Same results as the interpreter's full-length
    [Simulator.run_decoded] with the same fault, whenever the snapshot
    precedes the fault's trigger event. *)

(** A rollback-region head the golden run passed: the entry-function
    block, and the dynamic instruction count and clock at its loop
    top. *)
type head = { h_block : int; h_dyn : int; h_time : int }

(** Where a replayed rollback trial starts, and what the golden run
    knows about its prefix ({!Replay.recovery_prefix} builds it):
    - [start]: the golden snapshot the trial resumes from, taken before
      the trial's fault fires;
    - [head]: the latest golden region head at or before [start];
    - [base dyn]: the latest golden snapshot at or before [dyn], never
      one later than [start] ([None] when there is none). *)
type prefix = {
  start : State.snapshot;
  head : head option;
  base : int -> State.snapshot option;
}

val run_recovering :
  ?fault:Fault.t ->
  ?fuel:int ->
  ?with_mem_digest:bool ->
  ?prefix:prefix ->
  retry_budget:int ->
  t ->
  Outcome.run
(** Region rollback on the compiled engine: the same results, field for
    field, as [Simulator.run_recovering] with the same fault, fuel and
    budget, from a fresh machine or (with [prefix]) from a golden
    snapshot. Checkpoints are lazy: a region head records its block,
    dyn and time and copies nothing; a rollback rebuilds the checkpoint
    state by deterministic re-execution from the latest usable golden
    snapshot (see DESIGN.md §12). Rebuilds are counted in the
    [sim.rollback_rebuilds] and [sim.rollback_rebuild_insns] metrics
    and traced as [sim.rollback.rebuild] spans. *)
