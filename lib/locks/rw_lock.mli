(** A recoverable reader–writer lock — a downstream artefact built on the
    paper's mutex (the kind of extension its introduction motivates).

    Writers serialise through any strongly recoverable mutex (the adaptive
    BA-Lock by default) and then drain the readers; readers announce
    themselves in persisted per-process flags and back off while a writer
    is present.  All recovery is local and bounded:

    - a reader's persisted 3-state machine (idle / pending / reading /
      leaving) disambiguates "crashed while announced but not yet admitted"
      (the announcement is withdrawn and re-tried) from "crashed inside the
      read section" (re-admitted immediately, BCSR-style);
    - a writer's recovery rides on the underlying mutex's BCSR and the
      idempotence of the announce-and-drain sequence;
    - a reader that crashes mid-exit leaves a stale announcement that can
      block writers only until its next Recover runs, which the paper's
      fair-history assumption guarantees (a process whose last passage was
      not failure-free keeps taking steps).

    Writer-preference: announced writers block new readers, so writers
    cannot starve behind a reader stream. *)

type t

val create : ?name:string -> ?writer_lock:Lock.t -> Rme_sim.Engine.Ctx.t -> t
(** [writer_lock] defaults to a BA-Lock over the JJJ-shape base. *)

val read_acquire : t -> pid:int -> unit

val read_release : t -> pid:int -> unit

val write_acquire : t -> pid:int -> unit

val write_release : t -> pid:int -> unit
