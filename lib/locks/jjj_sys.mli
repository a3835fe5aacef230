(** The JJJ system-crash lock: a recoverable FCFS mutex whose entire state
    survives {e whole-system} failures.

    A direct lock presentation of the {!Tickets} doorway — the in-model
    reproduction of Jayanti–Jayanti–Joshi, {e Constant RMR Recoverable
    Mutex under System-wide Crashes} (arXiv 2302.00748): NVRAM ticket
    dispenser and grant counter, per-process announce slots, and a
    liveness-guarded repair path that skips tickets lost to doorway
    crashes.  Strongly recoverable under both the paper's per-process
    crash model and the system-wide model ({!Rme_sim.Crash.system_at}):
    mutual exclusion, FCFS and starvation freedom hold across whole-system
    restarts, and a process that crashed inside the critical section
    resumes ownership on recovery.  Its RMR cost is constant only on the
    failure-free path; doorway crashes cost O(n) repair scans
    ({!Tickets}), so it does not meet JJJ's constant bound under
    failures. *)

open Rme_sim

type t

val create : ?name:string -> Engine.Ctx.t -> t

val lock_id : t -> int

val lock : t -> Lock.t

val make : Lock.maker
