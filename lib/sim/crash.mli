(** Crash plans: when and where processes fail.

    The paper's failure model (§2.2) lets a process crash at any point,
    losing its private state while shared (NVRAM) state persists.  A plan
    decides, for every instruction a process is about to execute, whether
    it crashes immediately {e before} or {e after} it — "after" applies the
    instruction but loses its result, the failure mode of the sensitive FAS
    of Algorithm 2.  Plans can also fire {e asynchronous} crashes that hit
    a parked process, batch crashes (§7.1), and {e system-wide} crashes
    (Jayanti–Jayanti–Joshi, arXiv 2302.00748): every continuation is erased
    at one engine step, NVRAM persists, and every process restarts through
    its recovery section.

    Crashes are one of two decision axes over the core {!Plan} (the other
    is {!Abort}), which owns the seeded gate, the one-shots and {!all}.
    The engine logs every crash it delivers ([Engine.result.crash_log]),
    and {!replay_fired} turns that log back into a plan.  Plans are
    stateful; build a fresh plan for every run. *)

type point = Before | After

type decision = No_crash | Crash of point

(** See {!Plan.op_info}.  The engine reuses one record for every
    instruction of a run, refilling it before each consult: a plan or
    hook that keeps it must copy its fields. *)
type op_info = Plan.op_info = {
  mutable pid : int; mutable step : int; mutable op_index : int; mutable kind : Api.kind;
  mutable cell : string option; mutable note : Event.note option; mutable unsafe_wrt : int list;
}

(** See {!Plan.por_class}. *)
type por_class = Plan.por_class = Robust of int list | Sensitive

type t

val label : t -> string
(** Built on the first call, not with the plan (see {!Plan.t}). *)

val on_op : t -> op_info -> decision

val async : t -> step:int -> int list
(** Pids to crash right now, whatever they are doing (even parked).  The
    engine ignores a pid that has halted or that the run does not have. *)

val system : t -> step:int -> bool
(** [true] to crash the whole system (parked spinners included) right now;
    consulted once per engine iteration, after [async]. *)

val por_class : t -> por_class
(** [Sensitive] for plans that read the step counter ({!async_at},
    {!batch}, {!storm}, the system plans) or draw a shared RNG in
    cross-process op order ({!random} over several pids, {!fas_gap},
    {!target_holder}, {!target_window}). *)

(** {1 Constructors} *)

val none : t

val at_op : pid:int -> nth:int -> point -> t
(** Crash [pid] at its [nth] instruction (0-based, counted across restarts). *)

val on_kind : pid:int -> kind:Api.kind -> occurrence:int -> point -> t
(** Crash [pid] around the [occurrence]-th (0-based) instruction of [kind]
    it executes.  [on_kind ~pid:3 ~kind:Fas ~occurrence:0 After] is "p3
    crashes immediately after its first FAS" — the Figure 1 scenario. *)

val on_cell : pid:int -> cell:string -> occurrence:int -> point -> t
(** Crash [pid] around its [occurrence]-th access to any cell named [cell]. *)

val on_custom_note : pid:int -> tag:string -> occurrence:int -> point -> t
(** Crash [pid] around its [occurrence]-th [Custom tag] note. *)

val random : seed:int -> rate:float -> max_crashes:int -> ?pids:int list -> unit -> t
(** Each instruction of an eligible process crashes with probability [rate]
    (point uniformly Before/After), up to [max_crashes] in total — the
    budget keeps histories fair (finitely many crashes, as SF requires). *)

val fas_gap : seed:int -> rate:float -> max_crashes:int -> ?cell_suffix:string -> unit -> t
(** Crash any process just after a FAS on a cell whose name ends with
    [cell_suffix] (default ["filter.tail"]), with probability [rate] per
    such FAS, up to [max_crashes]: unsafe failures for the filter locks,
    and exactly the F of Theorems 5.17–5.19. *)

val async_at : (int * int) list -> t
(** [async_at [(step, pid); ...]]: crash [pid] at the first engine iteration
    whose global step is ≥ [step].  Reaches parked processes. *)

val batch : step:int -> pids:int list -> t
(** A batch failure (§7.1): all [pids] crash simultaneously at [step]. *)

val every_nth_passage : pid:int -> period:int -> max_crashes:int -> t
(** Crash [pid] just after the [Req_begin] of every [period]-th passage —
    a steady per-process failure pulse used by the adaptivity sweeps. *)

(** {1 Adaptive adversaries}

    Seeded plans that watch the milestones and window state in {!op_info}
    and aim where the algorithms are most exposed.  They decide through
    [on_op] only, so the engine logs each crash they fire with its op
    index, and {!replay_fired} replays it by {!at_op}. *)

val target_holder : ?lock:int -> seed:int -> rate:float -> max_crashes:int -> unit -> t
(** Crash processes only inside a lock's [Lock_enter]…[Lock_released]
    span (acquisition path, critical section, handoff) with probability
    [rate] per instruction (point uniformly Before/After), up to
    [max_crashes]; [lock] restricts the span to one lock id.  The "kill
    the holder" adversary. *)

val target_window : seed:int -> rate:float -> max_crashes:int -> unit -> t
(** Crash a process with probability [rate] per instruction executed while
    one of its sensitive windows is open ([unsafe_wrt] ≠ []), always
    [Before] so the crash lands inside the window: every crash is an
    unsafe failure — the worst case of Theorem 4.2. *)

val repeat_offender : victim:int -> gap:int -> times:int -> t
(** Failures during recovery: crash [victim] just after the [Req_begin] of
    its first passage, then [gap] instructions into {e every} restarted
    passage, [times] crashes in total.  Deterministic. *)

val storm :
  seed:int -> rate:float -> max_crashes:int -> gap:int -> ?backoff:float -> ?pids:int list ->
  unit -> t
(** {!random} with a cooldown ({!Plan.gate}): after each crash none fires
    for the current gap, initially [gap] global steps, and each firing
    multiplies the gap by [backoff] (default 1.0; must be ≥ 1). *)

(** {1 System-wide crashes}

    Every process loses its continuation at one engine iteration.  System
    plans decide on the global step counter, so they are [Sensitive]. *)

val system_at : step:int -> t
(** One system-wide crash, at the first iteration whose step is ≥ [step]. *)

val system_random : seed:int -> rate:float -> max_crashes:int -> unit -> t
(** Each iteration crashes the system with probability [rate], up to
    [max_crashes] times. *)

val system_storm :
  seed:int -> rate:float -> max_crashes:int -> gap:int -> ?backoff:float -> unit -> t
(** {!system_random} with {!storm}'s cooldown schedule. *)

(** {1 Recording and replay} *)

(** One crash the engine delivered ([Engine.result.crash_log]), by the
    coordinates that replay it. *)
type fired = {
  f_pid : int;  (** [-1] for a system-wide crash *)
  f_op_index : int;  (** the [nth] of {!at_op}; [-1] when [f_async] *)
  f_step : int;  (** global step at which the crash was delivered *)
  f_point : point;  (** [Before] for asynchronous and system crashes *)
  f_async : bool;  (** delivered through [async] or [system]: replayed by step *)
}

val replay_fired : fired list -> t
(** One {!at_op}, {!async_at} or {!system_at} per entry, unioned ({!none}
    for none): under the same scheduler decisions it re-injects exactly
    the crashes of the logged run. *)

val all : t list -> t
(** Union ({!Plan.all}): every member is consulted on every axis, even
    after another fired, so each member's state evolves from the consult
    stream alone.  The first [on_op] decision wins, [async] pids are
    concatenated, and [system] fires if any member does. *)
