(** Bounded cache of fully-explored decision-tree nodes, keyed by the
    engine state key (the digest an {!Rme_sim.Engine.Trace} pick's [key_at]
    hands to [on_state_key]) — the
    deduplication behind the explorer's `Source tier.

    Direct-mapped with an explicit capacity bound: a colliding add
    overwrites its slot and counts an {!evictions}.  Lookups compare the
    full key element-wise, so the bucketing [hash] only places entries —
    a poor (or adversarial) bucketing hash costs hit rate, not soundness.
    The key itself is not exact, though: its elements are digests
    ({!Rme_sim.Engine}'s state key folds [Memory.fingerprint], per-process
    answer-stream hashes and [hmix]-folded aggregates), so two distinct
    states whose digests collide share a key, and a hit on it prunes a
    subtree that was never explored.  Pruning is therefore sound only up
    to 63-bit digest collisions; the ROADMAP item "Make state-cache
    pruning sound" tracks keying on exact state material.  An entry also
    stores the pid sleep mask its exploration ran under and a
    caller-supplied subtree summary; {!find} only hits when the stored
    mask is a subset of the caller's (the stored exploration slept less,
    hence covered at least as much). *)

type 'a t

val create : ?hash:(int array -> int) -> capacity:int -> unit -> 'a t
(** [create ~capacity ()] holds at most [capacity] entries (at least one
    slot is always allocated).  [hash] overrides the bucketing hash —
    tests inject degenerate hashes to force collisions.
    @raise Invalid_argument on negative capacity. *)

val find : 'a t -> key:int array -> slept:int -> 'a option
(** [find t ~key ~slept] is [Some summary] when the subtree below [key]
    was fully explored under a sleep mask ⊆ [slept]; [None] otherwise.
    Updates the hit/miss counters. *)

val add : 'a t -> key:int array -> slept:int -> summary:'a -> unit
(** Record that [key]'s subtree was fully explored under [slept], with
    the caller's summary of it.  Overwrites on slot collision (counted as
    an eviction). *)

val capacity : 'a t -> int

val hits : 'a t -> int

val misses : 'a t -> int

val evictions : 'a t -> int
