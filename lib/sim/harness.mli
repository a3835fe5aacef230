(** The standard process-execution loop (Algorithm 1 of the paper).

    A process repeatedly executes NCS, Recover, Enter, CS, Exit.  Locks are
    presented to the harness as a record of closures so that composite locks
    (SA-Lock, BA-Lock) compose at the value level; [acquire] covers the
    Recover and Enter segments, [release] the Exit segment.

    On a crash the engine restarts the whole body; the loop then consults
    {!Api.completed_requests} (recoverable application state) and resumes
    the interrupted super-passage, exactly as §2.3 prescribes. *)

(** Outcome of a lock's abort protocol. *)
type abort_outcome =
  | Aborted  (** the request was withdrawn; the entry section was left *)
  | Acquired_instead
      (** the abort raced an incoming handoff and lost: the process holds
          the lock and must proceed to the CS and release normally *)
  | Not_supported  (** the lock has no abort path; treat as acquire-through *)

type lock = {
  name : string;
  acquire : pid:int -> unit;
  release : pid:int -> unit;
  try_abort : (pid:int -> abort_outcome) option;
      (** abort port: called by {!standard_body} when [acquire] raises
          {!Api.Abort_signal}.  Locks whose [acquire] can raise must supply
          it (wrap with {!Rme_locks.Lock.instrument} to get the
          {!Event.note} milestones); legacy locks leave it [None] and never
          raise. *)
}

val standard_body :
  ?cs:(pid:int -> unit) ->
  ?ncs:(pid:int -> unit) ->
  lock:lock ->
  requests:int ->
  int ->
  unit
(** [standard_body ~lock ~requests pid] is the Algorithm-1 loop, performing [requests] satisfied requests.  [cs]
    and [ncs] default to no-ops; both may perform {!Api} effects.

    When [acquire] raises {!Api.Abort_signal} the loop runs [try_abort]:
    on [Aborted] it abandons the passage and retries from the NCS (the
    same super-passage — the request is still outstanding); on
    [Acquired_instead] / [Not_supported] it proceeds to the CS and
    releases normally. *)

val yields : int -> pid:int -> unit
(** [yields k] is a [cs] or [ncs] body of [k] scheduling points. *)

val run_lock :
  ?record:bool ->
  ?trace_ops:bool ->
  ?max_steps:int ->
  ?on_crash:(pid:int -> step:int -> unit) ->
  ?abort:Abort.t ->
  ?cs:(pid:int -> unit) ->
  ?ncs:(pid:int -> unit) ->
  n:int ->
  model:Memory.model ->
  sched:Sched.t ->
  crash:Crash.t ->
  requests:int ->
  make:(Engine.Ctx.t -> lock) ->
  unit ->
  Engine.result
(** Build a lock with [make] and drive all [n] processes through
    [standard_body] for [requests] requests each. *)

val counter_cell : Engine.Ctx.t -> Cell.t
(** A scratch cell for {!racy_increment}. *)

val racy_increment : Cell.t -> pid:int -> unit
(** A deliberately non-atomic read-then-write increment.  In a crash-free
    run protected by a correct mutex the final contents equal the number of
    critical sections executed; lost updates witness a mutual-exclusion
    violation. *)
