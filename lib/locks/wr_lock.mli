(** WR-Lock: the weakly recoverable MCS lock of the paper (§4, Algorithm 2).

    The MCS queue with wait-free exit, made weakly recoverable:

    - a per-process state machine ([Free] → [Initializing] → [Trying] →
      [InCS] → [Leaving] → [Free]) persisted in shared memory drives
      Recover/Enter/Exit, so every if-block is idempotent and may be
      re-executed after a crash;
    - the {e single sensitive instruction} is the FAS appending the node to
      the queue: a crash between the FAS and persisting its result into
      [pred\[i\]] orphans the node, splitting the queue into sub-queues
      (Figure 1) — the only way mutual exclusion can be violated, and only
      inside the consequence interval of such an {e unsafe} failure
      (Theorem 4.2);
    - recovery detects the gap ([pred\[i\] = mine\[i\]] while [Trying]),
      relinquishes the node through the wait-free exit and retries with a
      fresh node — all in a bounded number of steps (BR), and Exit is
      bounded too (BE).

    RMR complexity: O(1) per passage in every failure scenario, under both
    CC and DSM. *)

type t

val create :
  ?name:string ->
  ?alloc:(Nodes.registry -> pid:int -> Nodes.node) ->
  ?retire:(pid:int -> unit) ->
  Rme_sim.Engine.Ctx.t ->
  t
(** [alloc] overrides node allocation and [retire] is invoked at the end of
    every Exit (normal or relinquishing) — together they plug in the §7.2
    memory-reclamation pool ({!Reclaim}).  [alloc] is applied once to the
    lock's node registry, at the end of construction, and the result
    allocates per call.  [alloc] defaults to a fresh node per call and
    [retire] to a no-op. *)

val lock : t -> Lock.t

val lock_id : t -> int

val make : Lock.maker
(** [make ctx = lock (create ctx)]. *)

val make_abort : Lock.maker
(** [make ctx], but the waiting spin is abortable and the lock carries an
    abort port.  The queue has no mid-queue unlink, so a withdrawal waits
    for the incoming hand-off and relays it to the successor through the
    wait-free exit; a grant that already landed means the abort lost the
    race ([Acquired_instead]).  Registered as ["wr-abort"]. *)

val registry : t -> Nodes.registry

(** {1 Diagnostics (unaccounted; checkers and demos only)} *)

val subqueues : t -> int list list
(** Reconstructs the implicit sub-queues from shared memory (as
    Proposition 4.1 describes): each element is a chain of node ids in
    queue order.  Nodes whose owner crashed in the FAS gap head their own
    sub-queue. *)

val owner_of_node : t -> int -> int
(** The process that allocated a node. *)
