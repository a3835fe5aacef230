(** Schedulers: who takes the next step.

    Processes run at arbitrary speeds and interleave arbitrarily (§2.1); the
    scheduler is the adversary that chooses the interleaving.  All
    schedulers here are fair over runnable processes, as the starvation-
    freedom property requires of fair histories. *)

type t

val label : t -> string
(** Built on the first call, not with the scheduler: a campaign builds
    schedulers per run and reads no label. *)

val pick : t -> runnable:int array -> step:int -> int
(** [pick t ~runnable ~step] chooses one pid from [runnable] (non-empty). *)

val make : label:string -> (runnable:int array -> step:int -> int) -> t
(** A scheduler from its pick function, for adversaries and probes defined
    outside this module.  The engine passes every runnable set in
    ascending pid order, in an array it reuses across steps: a pick
    function must not modify it, and must copy it to keep it. *)

val round_robin : unit -> t
(** Cycles through the processes in pid order. *)

val random : seed:int -> t
(** Uniform choice among runnable processes (fair with probability 1). *)

val greedy : unit -> t
(** Runs the lowest runnable pid until it blocks — an extreme (still fair in
    bounded runs) schedule that maximises solo bursts. *)

val burst : seed:int -> len:int -> t
(** Runs a randomly chosen process for up to [len] consecutive steps before
    switching — a convoy-forming adversary that stresses hand-off paths. *)

val recording : inner:t -> decisions:int Vec.t -> t
(** Delegates every pick to [inner] and appends the chosen pid's index into
    the runnable set to [decisions].  The engine passes every runnable set
    in ascending pid order, so the index is the chosen pid's rank — the
    decision-vector encoding of {!trace} and {!Engine.run_trace}.  This is
    how the chaos campaign turns a random adversarial discovery into a
    deterministic, shrinkable witness ({!Rme_check.Explore.replay}
    re-executes it and reports where a replay diverges). *)

val trace : decisions:int Vec.t -> record:int Vec.t -> unit -> t
(** Decision-vector scheduler: the [i]-th pick takes [decisions.(i)] as an
    index into the runnable set (0 when the vector is exhausted; an index
    outside the set is reduced modulo its size) and appends the size of
    the runnable set to [record].  The same rule as {!Engine.run_trace},
    for callers that need {!Engine.run}'s hooks; to check that a vector
    replays faithfully, use {!Rme_check.Explore.replay}. *)
