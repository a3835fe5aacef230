(** Trace replay: an independent check of the engine's memory semantics.

    A run recorded with [trace_ops] contains every instruction in execution
    order, each with the contents of its cell after it.  [verify] walks
    that stream with a straightforward sequential interpreter and confirms
    that the per-cell value history is internally consistent: every read
    (and spin fetch) returns the last recorded value of its cell, i.e. the
    interleaving the engine reports is a legal sequentially consistent
    execution.  This guards the simulator itself: a bug in the effect
    plumbing, the park/wake path or crash handling that reordered or
    dropped an applied instruction would surface here as a divergence.
    It is deliberately a {e different} code path from the engine. *)

open Rme_sim

type report = {
  ops_replayed : int;
  divergence : string option;  (** [None] = consistent *)
}

val pp_report : report Fmt.t

val verify : Engine.result -> report
(** [verify res] replays [res]'s op trace (requires [trace_ops:true]) and
    reports the first read whose value differs from the last recorded
    value of its cell.  The first op seen on a cell establishes its value:
    the initialisation is not in the trace. *)
