(** Golden-prefix replay: snapshot the golden run, start each faulty
    trial from the snapshot nearest its injection event.

    Every fault model is armed by one monotone dynamic counter (written
    register slots, memory accesses, conditional branches, cross-cluster
    reads), and a faulty trial is bit-identical to the golden run until
    that counter reaches the fault's target. So a {!State.snapshot}
    taken while the counter is still at or below the target is a valid
    starting point: {!Simulator.run_compiled_replayed} from it
    reproduces the full run exactly, paying only the post-snapshot
    suffix. Replay runs on the compiled engine only; the interpreter is
    the full-length reference it is held to.

    A capture set is immutable after {!capture} and safe to share
    read-only across pool domains; the engine memoizes it alongside the
    decoded program. *)

type t

(** [capture decoded] executes one golden run on the compiled engine
    ({!Compile.run} with its capture hook), recording snapshots at
    entry-function block boundaries roughly every [init_stride] dynamic
    instructions; whenever twice [target] snapshots accumulate, every
    other one is dropped and the stride doubles (single pass, no need
    to know the program length up front, deterministic). The run always
    models the real cache hierarchy. It is traced as a [sim.replay]
    span and counted in the [replay.snapshots]/[replay.snapshot_bytes]
    metrics.

    @param compiled the stage-2 program of [decoded] (e.g. the engine
      cache's memoized one), so a cell compiles once; without it the
      capture compiles its own. Raises [Invalid_argument] when it was
      compiled from a different decoded program.
    @param with_mem_digest fill the golden run's [mem_digest] (default
      false), for callers that compare it field for field. *)
val capture :
  ?init_stride:int ->
  ?target:int ->
  ?fuel:int ->
  ?with_mem_digest:bool ->
  ?compiled:Compile.t ->
  Decode.t ->
  t

(** The golden run the capture pass executed — bit-identical to a plain
    [Simulator.run_decoded] or [Simulator.run_compiled] of the same
    program (the snapshot hook only copies state). *)
val golden : t -> Outcome.run

(** Number of snapshots retained. *)
val count : t -> int

(** The retained snapshots, chronological. The returned array is the
    capture set itself — treat it as read-only. *)
val snapshots : t -> State.snapshot array

(** Approximate total heap footprint of the snapshot set, in bytes. *)
val total_bytes : t -> int

(** Final dynamic-instruction stride between retained snapshots. *)
val stride : t -> int

(** [find t fault] returns the latest snapshot taken before [fault]'s
    trigger event — the cheapest valid starting point — or [None] when
    even the first snapshot is too late (the trial must run
    full-length). O(log snapshots). *)
val find : t -> Fault.t -> State.snapshot option

(** Every rollback-region head (entry-function Cpt block top) the
    golden run passed, chronological; empty for a program without
    checkpoints. *)
val heads : t -> Compile.head array

(** [recovery_prefix t fault] is where a rollback trial under [fault]
    starts on the compiled engine ({!Compile.run_recovering}): the
    snapshot {!find} returns, the golden region head at or before it,
    and the golden snapshots at or before it as rebuild bases. [None]
    when {!find} is [None]. *)
val recovery_prefix : t -> Fault.t -> Compile.prefix option

(** Fraction of the golden run's dynamic instructions executed when
    replaying from [snap] ([1.0] = whole program). *)
val suffix_fraction : t -> State.snapshot -> float
