(** Cross-scheme differential oracle.

    Fault-free, every scheme is supposed to be a semantics-preserving
    recompilation: NOED, SCED, DCED and CASTED must produce the same
    architectural outcome — exit code, output-region bytes, and the
    whole final memory image — on the same workload. Any divergence is
    a compiler or simulator bug, RepTFD-style: the reference execution
    is the oracle.

    Each cell additionally cross-checks the three engine paths against
    each other, field for field: [Simulator.run] vs
    [Simulator.run_decoded] on the schedule (the pre-decoded
    interpreter must be bit-identical to the direct one),
    [Simulator.run_compiled] on the stage-2 compiled program (the
    closure-threaded engine must be bit-identical to the interpreter),
    and the compiled engine's golden-prefix replay,
    [Simulator.run_compiled_replayed] from {e every} snapshot of a dense
    {!Casted_sim.Replay.capture}, vs the decoded run (replay must lose
    no piece of the machine state). The capture's own golden run,
    executed on the compiled engine with the snapshot hook armed, is
    held to the decoded run as well (["run_decoded vs capture
    golden"]). *)

type cell = {
  scheme : Casted_detect.Scheme.t;
  issue_width : int;
  delay : int;
}

val pp_cell : Format.formatter -> cell -> unit

(** The default example matrix: NOED/SCED once per issue width
    (single-core schemes do not see the delay axis), DCED/CASTED per
    (issue width, delay) point. *)
val cells : ?issue_widths:int list -> ?delays:int list -> unit -> cell list

type divergence = {
  cell : cell;
  field : string;  (** what differed, e.g. ["output"] or ["cycles"] *)
  reference : string;
  got : string;
}

val pp_divergence : Format.formatter -> divergence -> unit
val divergence_to_json : divergence -> Casted_obs.Json.t

(** [reference ?options ?fuel program] compiles and runs the program
    under NOED at issue width 1 and returns the fault-free reference
    run (with its memory digest). *)
val reference :
  ?options:Casted_detect.Options.t ->
  ?fuel:int ->
  Casted_ir.Program.t ->
  Casted_sim.Outcome.run

(** [check_cell ?options ?fuel ~reference program cell] compiles
    [program] for [cell], runs it fault-free, and returns every
    divergence: architectural outcome vs the reference, plus the
    [run] / [run_decoded] / [run_compiled] / [run_compiled_replayed]
    cross-check on the cell's own schedule. *)
val check_cell :
  ?options:Casted_detect.Options.t ->
  ?fuel:int ->
  reference:Casted_sim.Outcome.run ->
  Casted_ir.Program.t ->
  cell ->
  divergence list

(** [differential ?pool ?issue_widths ?delays ?options ?fuel program]
    runs the whole matrix, fanning cells over [pool] when given. The
    result preserves matrix order. *)
val differential :
  ?pool:Casted_exec.Pool.t ->
  ?issue_widths:int list ->
  ?delays:int list ->
  ?options:Casted_detect.Options.t ->
  ?fuel:int ->
  Casted_ir.Program.t ->
  divergence list
