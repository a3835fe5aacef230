(** The Dhoked–Mittal adaptive-and-fair transformation (arXiv 2110.08308),
    as a wrapper over any base lock from the registry.

    The transformation composes a recoverable FCFS doorway ({!Tickets} —
    robust under both per-process and system-wide crashes) in front of a
    base RME lock: the doorway serializes admission in ticket order, so
    the composite is FCFS whatever the base's own fairness, and on the
    failure-free path the base is acquired uncontended — the composite's
    failure-free RMR cost is O(1) doorway work plus the base's uncontended
    cost.  Failures degrade it to the base's contended profile plus the
    doorway's repairs: once a doorway crash is flagged, a passage's repair
    scans the n announce slots (O(n)), and a repair that finds k dead
    tickets in a row skips them all, one O(n) scan each, so one passage
    can pay O(n(k+1)) RMRs, k up to the doorway crashes so far.  That is
    far from the O(1) RMRs per passage Jayanti–Jayanti–Joshi (arXiv
    2302.00748) reach under system-wide crashes; see {!Tickets}. *)

open Rme_sim

type t

val create : ?name:string -> base:Lock.maker -> Engine.Ctx.t -> t

val lock_id : t -> int

val lock : t -> Lock.t

val make_over : name:string -> base:Lock.maker -> Lock.maker
(** [make_over ~name ~base] is the registry-facing constructor: the
    transformation applied to [base]. *)
