(** The decision-axis core of crash ({!Crash}) and abort ({!Abort}) plans.

    The engine consults a plan per applied instruction ([on_op]), once per
    iteration for asynchronous strikes ([async], handed the axis's view
    ['v]: [unit] for crashes, {!Abort.view} for aborts) and once per
    iteration for a system-wide crash ([system]).  A firing [on_op]
    carries a payload ['p]: the {!Crash.point}, [unit] for aborts.

    {b Winding contract}: a plan's state (RNG cursors, budgets, cooldowns)
    evolves from the consult sequence alone, so {!all} consults every
    member on every axis.  Plans are stateful; build fresh ones per run. *)

(** What a plan sees about the instruction about to execute.

    The engine fills {e one} record per run in place and hands it to every
    consult, so an [on_op] (or an {!Engine.run} [on_op] hook) that keeps
    the record past its call sees it overwritten by the next instruction:
    copy the fields you need (the engine's crash log does). *)
type op_info = {
  mutable pid : int;
  mutable step : int;  (** global step counter *)
  mutable op_index : int;
      (** per-process instruction counter from the start of the run, {e
          not} reset by a crash: the [nth] of {!at_op} addresses one point
          of the whole execution (test "op_index continues across
          restarts" in [test/test_sim.ml]) *)
  mutable kind : Api.kind;
  mutable cell : string option;  (** name of the touched cell, if any *)
  mutable note : Event.note option;  (** payload when [kind = Note] *)
  mutable unsafe_wrt : int list;
      (** locks whose sensitive window ({!Api.fas_open_unsafe} …
          {!Api.write_close_unsafe}) the process has open before this
          instruction: non-empty means a crash now is unsafe (§2.2) *)
}

(** For the explorer's partial-order reduction.  [Robust victims]: every
    decision is a function of the struck process's own instruction
    history, so commuting other processes' independent steps cannot move
    a firing; only [victims] can be struck.  [Sensitive]: decisions read
    the step counter, a cross-process RNG, shared span state or the view,
    so the reduction disables itself. *)
type por_class = Robust of int list | Sensitive

val union : por_class -> por_class -> por_class
(** Robust over both victim sets when both are robust, else Sensitive. *)

type ('p, 'v) t = {
  label : string Lazy.t;
      (** built only when read ({!Crash.label}, {!Abort.label}): a plan is
          built per run in campaigns, and most runs never print theirs *)
  on_op : op_info -> 'p option;
  async : step:int -> 'v -> int list;
  system : step:int -> bool;
  por : por_class;
}

val none : ('p, 'v) t
(** Never fires; build other plans as [{ none with ... }].  The engine
    compares against this value physically to skip plan consults. *)

type gate  (** a seeded coin with a budget and an optional cooldown *)

val gate :
  string -> salt:int -> seed:int -> rate:float -> budget:int -> ?gap:int -> ?backoff:float ->
  unit -> gate
(** [gate name ...] draws from [Random.State.make [| seed; salt |]] and
    raises [Invalid_argument "name: …"] unless [rate] is in [0, 1], [gap]
    ≥ 0 and [backoff] ≥ 1 (default 1).  No [gap], no cooldown. *)

val fire : gate -> step:int -> bool
(** With budget left and [step] past the cooldown, draw; a draw below the
    rate fires, spends one unit, closes the next [gap] steps and
    multiplies [gap] by [backoff]. *)

val rng : gate -> Random.State.t  (** for payload draws after a firing *)

val coin : label:string Lazy.t -> ?pids:int list -> gate -> (Random.State.t -> 'p) -> ('p, 'v) t
(** On an op of an eligible pid (default all) {!fire}, then draw the
    payload.  Robust over a single pid without cooldown, else Sensitive. *)

val at_op : tag:string -> pid:int -> nth:int -> 'p -> ('p, 'v) t
(** Strike [pid] at its [nth] instruction once; Robust.  [tag] prefixes the label. *)

val async_at : tag:string -> (int * int) list -> ('p, 'v) t
(** [(step, pid)]: strike [pid] at the first iteration at or past [step].
    An iteration with no entry due allocates nothing. *)

val system_at : step:int -> ('p, 'v) t
(** One system-wide crash at the first iteration at or past [step]. *)

val all : ('p, 'v) t list -> ('p, 'v) t
(** Every member is consulted on every axis; the first firing payload
    wins, [async] pids are concatenated, [system] fires if any member
    does, and the class is the {!union}.  A consult where no member fires
    allocates nothing. *)
