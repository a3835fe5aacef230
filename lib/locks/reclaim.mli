(** Memory reclamation for queue nodes (§7.2, Algorithm 4).

    A failure can leave an MCS node referenced by other processes long after
    its owner finished with it, so nodes cannot be freed eagerly.  Each
    process owns two pools (active and reserve) of 2n nodes; the allocator
    serves nodes round-robin from the active pool, and an incremental epoch
    runs one step per allocation: scan every process's [in] counter, wait
    for the matching [out] counters to catch up (all requests that might
    hold references have been satisfied), then swap pools.  After 4n
    requests a node is old enough that no process references it, bounding
    the lock's space at O(n²) nodes per lock — O(n²·T(n)) for the full
    recursive BA-Lock stack, as §7.2 states.

    All reclamation state lives in shared cells and every step is
    idempotent, so the algorithm is itself crash-recoverable; in particular
    repeated allocations return the same node until {!retire} is
    called, which covers a crash between allocating a node and persisting
    the reference to it.

    Plug into the filter lock with
    [Wr_lock.create ~alloc:(Reclaim.alloc r) ~retire:(Reclaim.retire r)]. *)

type t

val create : ?name:string -> ?notify:bool -> Rme_sim.Engine.Ctx.t -> t
(** [notify] selects the DSM-friendly notification-based wait (§7.2's last
    paragraph): epoch waiters sleep on a local doorbell cell instead of
    spinning on the scanned process's remote [out] counter, and retiring
    processes ring the registered doorbells.  Retire stays O(1) until the
    first waiter ever registers at that process (a sticky dirty flag gates
    the O(n) doorbell scan; sticky because clearing it would open a
    crash window that loses wake-ups). *)

val alloc : t -> Nodes.registry -> pid:int -> Nodes.node
(** [alloc t reg] draws [t]'s pools from [reg] — two pools of 2n nodes per
    process, the statically allocated NVRAM of §7.2 — and returns the
    allocator: [alloc t reg ~pid] allocates (or re-returns) the current
    node for [pid]'s active request.  Apply it to the registry once,
    during construction, so the pools belong to the constructed image;
    {!Wr_lock.create} does so with its [alloc] at the end of its own
    construction. *)

val retire : t -> pid:int -> unit
(** Mark [pid]'s current node as done; the next allocation advances. *)
