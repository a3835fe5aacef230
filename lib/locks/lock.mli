(** Common lock plumbing.

    A lock presented to the harness is a {!Rme_sim.Harness.lock} — a record
    of closures — so composite locks compose at the value level.  This
    module provides the instrumentation wrapper emitting the per-lock
    history milestones the property checkers rely on, the dual-port
    interface of the arbitrator lock, and the [maker] type used by the
    registry. *)

open Rme_sim

type t = Harness.lock = {
  name : string;
  acquire : pid:int -> unit;
  release : pid:int -> unit;
  try_abort : (pid:int -> Harness.abort_outcome) option;
}

type maker = Engine.Ctx.t -> t
(** Lock constructor: allocates shared cells and registers the lock. *)

type milestones = {
  m_enter : Event.note;  (** [Lock_enter id] *)
  m_acquired : Event.note;  (** [Lock_acquired id] *)
  m_release : Event.note;  (** [Lock_release id] *)
  m_released : Event.note;  (** [Lock_released id] *)
}
(** A lock's four milestone notes, built once when the lock is: a note
    whose payload is constructed at the call allocates it on every
    passage. *)

val milestones : int -> milestones

val instrument :
  id:int ->
  name:string ->
  ?try_abort:(pid:int -> Harness.abort_outcome) ->
  acquire:(pid:int -> unit) ->
  release:(pid:int -> unit) ->
  unit ->
  t
(** Wrap segment implementations with {!Rme_sim.Event.note} milestones:
    [Lock_enter id] / [Lock_acquired id] around [acquire] and
    [Lock_release id] / [Lock_released id] around [release].  When
    [try_abort] is given it is wrapped too: [Abort_request id] before the
    protocol, then [Abort_done id] on [Aborted] or [Abort_lost_race id] on
    [Acquired_instead] ([Not_supported] emits no completion milestone —
    the signal resolves at the eventual [Lock_acquired]). *)

val abortable : t -> t
(** Adapter for the conformance matrix: a lock without an abort port gets
    [try_abort = Some (fun ~pid:_ -> Not_supported)], so probing any
    registry lock is well-defined.  Locks that already carry a port are
    returned unchanged. *)

(** Side of a dual-port lock (the arbitrator's two ports, §5.1.1). *)
type side = Left | Right

val side_index : side -> int

(** A dual-port lock: at most one process may compete on each side at any
    time, but any pair of the n processes may be the two competitors. *)
type dual = {
  dual_name : string;
  dual_acquire : side -> pid:int -> unit;
  dual_release : side -> pid:int -> unit;
}
