(** Abort (impatience) plans: when a client gives up on its entry section.

    The second decision axis over the core {!Plan}: the engine consults a
    plan per applied instruction ([on_op]) and once per engine iteration
    ([async]); a positive decision delivers an {e abort signal}.  The
    engine flags only processes inside a lock's entry section
    ({!Event.Lock_enter} seen, {!Event.Lock_acquired} not yet), so plans
    may fire blindly.  A flagged process observes the signal at its next
    abortable point ({!Api.spin_abortable} / {!Api.poll_abort}) and runs
    the lock's [try_abort] (see {!Harness}); the signal resolves when the
    victim aborts ({!Event.Abort_done}), loses the race and acquires
    ({!Event.Abort_lost_race}), acquires normally, or crashes.

    {b Winding contract} (record/replay): a plan's state (RNG cursors,
    budgets, gap cursors) evolves from the consult sequence alone, never
    gated on the [view] oracles; only victim {e selection} may read the
    view.  Two runs that consult a plan in the same order therefore leave
    it in the same state, whatever the oracles answered. *)

(** Engine oracles handed to [async] decisions, rebuilt fresh per run. *)
type view = {
  n : int;  (** number of processes *)
  waiting : int -> int;
      (** entry age of [pid] in engine steps; [-1] outside entry sections *)
  streak : int -> int;
      (** consecutive aborts of [pid]'s current super-passage — reset when
          a request resolves by acquisition, lost race, or crash *)
}

val blind_view : n:int -> view
(** All [waiting] [-1], all [streak] [0]: the view of no engine at all —
    the engine's placeholder when a run has no abort plan. *)

type t

val label : t -> string
(** Built on the first call, not with the plan (see {!Plan.t}). *)

val on_op : t -> Plan.op_info -> bool
(** Signal the op's process before this op? *)

val async : t -> step:int -> view -> int list
(** Pids to signal this iteration. *)

val por_class : t -> Plan.por_class
(** [Robust] iff every decision is a function of the victim's own
    instruction history. *)

val none : t
(** Never signals.  The engine compares against this plan physically to
    skip all abort bookkeeping. *)

val at_op : pid:int -> nth:int -> t
(** Signal [pid] immediately before its [nth] instruction, once.  Robust. *)

val async_at : (int * int) list -> t
(** [(step, pid)] pairs: signal [pid] at the first iteration whose step is
    ≥ [step].  Sensitive. *)

val impatient : timeout_steps:int -> ?retries:int -> ?backoff:float -> unit -> t
(** Signal every process whose entry section has aged at least
    [timeout_steps * backoff ^ streak] engine steps, unless its abort
    streak has reached [retries] (it then waits the acquisition out).
    Defaults: unlimited retries, backoff 1.  Stateless.  Sensitive. *)

val random : seed:int -> rate:float -> max_aborts:int -> ?pids:int list -> unit -> t
(** Signal the op's process with probability [rate], at most [max_aborts]
    times.  Robust when restricted to a single pid, Sensitive otherwise. *)

val storm : seed:int -> rate:float -> max_aborts:int -> gap:int -> ?backoff:float -> unit -> t
(** Seeded async pressure with {!Crash.storm}'s cooldown, signalling the
    oldest waiter (lowest pid on ties); the gate fires whether or not anyone waits. *)

val all : t list -> t
(** Union: signal iff any member signals; every member is consulted at
    every decision point ({!Plan.all}). *)

(** {1 Record and replay} *)

(** One abort signal the engine delivered ([Engine.abort_log] lists a
    run's, from [Engine.result.aborts]). *)
type fired = {
  a_pid : int;
  a_op_index : int;  (** victim's op index, [-1] for async deliveries *)
  a_step : int;
  a_async : bool;
}

val replay_fired : fired list -> t
(** Re-issues exactly the logged signals: {!at_op} per on-op entry,
    {!async_at} per async entry, unioned ({!none} for none). *)
