(** A recoverable FCFS ticket doorway robust under {e system-wide} crashes.

    The queue lives entirely in NVRAM: a ticket dispenser ([seq]), the
    ticket currently served ([grant]), and one announce slot per process.
    A process announces it is mid-doorway, takes a ticket with one FAA,
    publishes it in its slot, and local-spins until [grant] reaches it;
    the hand-off is a single FAA on [grant].  Because every decision a
    restarted process needs — did I hold a ticket? was it served? — is
    answerable from its own slot and [grant], the doorway recovers from
    any combination of per-process and whole-system crashes:

    - slot = its ticket = [grant]: the process was being served (possibly
      inside the CS) — it resumes ownership (bounded CS reentry);
    - slot = ticket > [grant]: still queued — it rejoins the wait;
    - slot = ticket < [grant]: its hand-off already completed — start a
      fresh passage;
    - slot = mid-doorway marker: the ticket (if the FAA happened) is lost;
      recovery flags a {e repair} and the dead ticket is skipped — with a
      liveness scan guarding the skip — when it becomes current.

    The failure-free path is a constant number of instructions and, under
    the simulator's local-spin accounting (one refetch per wake), O(1)
    RMRs per passage in both CC and DSM — the in-model stand-in for the
    constant-RMR hand-off structure of Jayanti–Jayanti–Joshi (arXiv
    2302.00748).  Under failures it is not constant.  The repair scan is
    O(n) and runs whenever [dirty] is positive, and [dirty] can overcount
    (a crash before the ticket FAA flags a ticket that was never taken),
    so after one doorway crash every passage may pay O(n).  One repair
    skips every dead ticket in a row, each after its own O(n) scan, so a
    passage that meets k of them pays O(n(k+1)) RMRs.  JJJ's O(1) bound
    under system-wide crashes needs their hand-off structure, which this
    doorway does not reproduce. *)

open Rme_sim

type t

val create : ?name:string -> Engine.Ctx.t -> t
(** Allocates the dispenser, grant and per-process announce slots.  Does
    {e not} register a lock id: callers embed the doorway and instrument
    themselves. *)

val enter : t -> pid:int -> unit
(** Recovery classification, doorway, and wait; returns with [pid] served
    (holding the doorway's critical section). *)

val exit : t -> pid:int -> unit
(** Hand off to the next ticket and retire this passage's slot. *)
