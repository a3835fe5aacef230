(** Property checkers over a run's result.

    Each checker consumes an {!Rme_sim.Engine.result} and returns [None]
    when the property holds or [Some message] describing the first
    violation.  Most read the result's aggregate statistics, which every
    run keeps.  {!weak_me_intervals}, {!system_recovery} and
    {!no_lost_wakeup} read the facts of the engine's online history
    monitors ({!Rme_sim.Engine.monitors}), which every run keeps too,
    whatever its event sink.  {!bounded_exit}, {!bounded_recovery},
    {!bcsr} and {!fcfs} scan the recorded history: run them with
    [~record:true ~trace_ops:true].  The properties are the ones §2.4 and
    §3 of the paper define: ME, starvation freedom, weak-ME with
    consequence intervals, responsiveness (Theorem 4.2), bounded exit /
    recovery / CS reentry, and FCFS. *)

open Rme_sim

val mutual_exclusion : Engine.result -> string option
(** At most one process in the application CS at any time. *)

val lock_mutual_exclusion : Engine.result -> lock_id:int -> string option
(** At most one holder of the given lock at any time. *)

val starvation_freedom : Engine.result -> requests:int -> string option
(** Every process satisfied [requests] requests and the run neither
    deadlocked nor timed out.  When the run ended abnormally, the message
    is the engine watchdog's diagnosis ({!Engine.stall}): deadlock /
    livelock / starvation / underbudget, with the culprit pids and the
    segment each is stuck in — never a bare "timed out". *)

val responsiveness : Engine.result -> lock_id:int -> string option
(** Theorem 4.2 (coarse form): the lock's maximum simultaneous occupancy k+1
    never exceeds 1 + the total number of unsafe failures w.r.t. it. *)

val weak_me_intervals : Engine.result -> lock_id:int -> string option
(** Definition 3.2 / Theorem 4.2 (interval form): whenever the lock's
    occupancy rises to k+1, at least k unsafe failures w.r.t. it have
    consequence intervals overlapping that moment.  A failure's consequence
    interval extends until every request outstanding at the failure has been
    satisfied (Definition 3.1; requests here are super-passages of the
    target lock's users).  An [Abort_lost_race] counts as an acquisition:
    the abort lost the race and the process holds the lock.  Reads the
    engine's weak-ME monitor, which checks every lock id. *)

val bounded_exit : Engine.result -> lock_id:int -> bound:int -> string option
(** Every Exit segment of the lock takes at most [bound] instructions of the
    exiting process (requires [trace_ops]). *)

val bounded_recovery : Engine.result -> lock_id:int -> bound:int -> string option
(** After a crash, the steps from the process's next passage start to the
    start of the lock's Enter segment are at most [bound] (requires
    [trace_ops]). *)

val bcsr : Engine.result -> lock_id:int -> bound:int -> string option
(** Bounded CS reentry: when a process crashes while holding the lock, its
    next acquisition takes at most [bound] of its own instructions from
    passage start to [Lock_acquired] (requires [trace_ops]). *)

val fcfs : Engine.result -> tail_cell:string -> string option
(** In a crash-free history, CS order equals the queue-append (FAS on
    [tail_cell]) order (requires [trace_ops]).  Only meaningful for the
    MCS-family locks driven as the application lock. *)

(** {1 Adaptivity-contract monitors} *)

val super_adaptivity : Engine.result -> string option
(** Theorem 5.17: reaching BA-Lock level x is possible only after at least
    x(x−1)/2 failures — each promotion from level l to l+1 needs l unsafe
    failures' worth of filter overlap below it.  The monitor checks
    [max_level] x against [total_crashes] ≥ x(x−1)/2 (crashes upper-bound
    unsafe failures, so a history passing the crash form can only be more
    compliant in the failure form).  Vacuous for locks that never emit
    [Level] notes. *)

val failure_free_rmr : Engine.result -> bound:int -> string option
(** The paper's Table 1 contract that failure-free passages cost O(1) RMR:
    in a history with no crashes at all, every passage's RMR count must be
    ≤ [bound].  Vacuous (always [None]) when the history contains crashes,
    since crashed and post-crash passages may legitimately pay the adaptive
    slow path. *)

val system_recovery : Engine.result -> string option
(** No process skips recovery after a crash: once struck — individually or
    by a system-wide crash (every {!Rme_sim.Event.Sys_crash} is followed by
    one per-pid crash event per victim) — a process must emit a fresh
    [Req_begin] before its next [Cs_begin].  A violation means a
    continuation survived the erasure or a recovery path jumped straight
    back into the CS.  Reads the engine's system-recovery monitor, so it
    holds a run to this whatever its event sink. *)

(** {1 Abort monitors} *)

val abort_liveness : Engine.result -> bound:int -> supported:bool -> string option
(** Every abort signal resolves — [Abort_done], [Abort_lost_race],
    acquisition, or a crash — within [bound] of the {e victim's own} steps
    (the engine's [ab_own_steps] accounting).  A signal still pending at
    the end of the run is judged by the same yardstick: over budget is a
    violation, under budget is inconclusive.  Vacuous when
    [supported = false] (the lock has no abort path, so waiting the
    acquisition out is the only — legitimately unbounded — resolution). *)

val no_lost_wakeup : Engine.result -> bound:int -> string option
(** No hand-off is ever dropped.  Flags either (a) a waiter whose
    unresolved [Lock_enter] is overtaken by [bound] complete passages
    (acquired → released) of the same lock by other processes — correct
    hand-off locks admit a registered waiter within O(n) passages — or
    (b) a run that stalls with some process parked in an entry section
    while, per the event history, no process holds any lock.  Reads the
    engine's lost-wakeup monitor, which logs the first release to bring
    a waiter to each overtake count, so any [bound] is judged from one
    run. *)

val abort_rmr : Engine.result -> bound:int -> string option
(** The abort protocol is cheap: RMRs charged to the victim between the
    signal and an [Aborted]/[Acquired_instead] resolution are ≤ [bound].
    Resolutions by acquisition or crash are exempt (not protocol work). *)

val all_satisfied : Engine.result -> n:int -> requests:int -> bool
(** Convenience: completed = n × requests, no deadlock, no timeout. *)

(** What to hold an abortable run to; see {!check_battery}. *)
type abort_expect = {
  liveness_bound : int;  (** {!abort_liveness} bound, victim's own steps *)
  rmr_bound : int;  (** {!abort_rmr} bound *)
  overtake_bound : int;  (** {!no_lost_wakeup} passage bound *)
  supported : bool;  (** the lock has a real abort path *)
}

val default_abort_expect : abort_expect
(** Generous defaults for the registry's abortable locks:
    [liveness_bound = 400], [rmr_bound = 60], [overtake_bound = 24],
    [supported = true]. *)

val check_battery :
  ?abort:abort_expect -> Engine.result -> requests:int -> weak_lock_ids:int list -> string list
(** The standard battery: mutual exclusion (or, for weakly recoverable
    application locks, the interval form over [weak_lock_ids]) plus
    starvation freedom, the super-adaptivity monitor and the
    {!system_recovery} monitor.  With [?abort], additionally
    {!abort_liveness}, {!no_lost_wakeup} and {!abort_rmr} with the given
    expectations.  Every check in it reads what every run keeps, so a run
    with no recorded history is judged exactly.  Returns the violations
    found ([[]] = clean). *)
