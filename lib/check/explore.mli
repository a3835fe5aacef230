(** Bounded exhaustive schedule exploration (a small stateless model
    checker).

    Replays the simulation under every interleaving reachable within the
    configured bounds: a run is identified by its decision vector (which
    runnable process steps at each point, as an index into the ascending
    ready set, replayed from the root by {!Engine.run_trace}); after each run, the
    recorded branching degrees spawn the sibling decision vectors.  With
    small [n] and request counts this enumerates the complete schedule
    tree and checks a property on every run — exhaustive verification of
    mutual exclusion for the splitter, arbitrator and WR-Lock components,
    optionally under a crash plan.

    There are two searches, both driven by {!explore}: a plain depth-first
    search for [`Off], and one reduced search for [`Sleep] and [`Source],
    which differ only in which siblings it is asked to visit.  Each runs
    once over the whole tree on the calling domain, and
    every run replays its whole decision vector from the root.  A search
    keeps one decision stack, zero past the running node's depth, which
    each node runs as its decision vector: a child's choice is written
    before its run and cleared after, so no node copies its prefix.

    A search builds one {!Engine.arena} from its subject, which runs
    [setup] once, and runs every one of its runs in it, the root probe and
    the shrink replays included: each run rewinds the arena to the
    constructed subject.  It also builds its run options once
    ({!Engine.trace_opts}), so a run passes {!Engine.run_with} only its
    decisions, plans and state-key position.  A node reads its run's
    degrees and footprints in place, in the arena's buffers: a cache hit
    walks its prefix there, and a node that expands children first copies
    its own suffix of them (from its depth to the end of its run), which
    the children's runs overwrite, onto frame stacks the search keeps.  A
    reduced-search node keeps its demand, acted and sleep slots there too,
    so no node allocates its own bookkeeping.  The race scans of a
    [`Source] search share one {!Footprint.Race.scratch}.  Parallelism
    lives one level up: {!Sweep} and {!Chaos} shard independent crash
    plans and seeds over domains with {!Pool}, one sequential search
    each. *)

open Rme_sim

type outcome = {
  runs : int;  (** schedules executed *)
  exhausted : bool;
      (** [true] iff the whole schedule tree was covered: every run within
          the bounds executed, no truncation by [max_runs], and no
          violation (finding one stops the search early by design) *)
  violation : (string * int list) option;
      (** first failing run in DFS preorder: message and its decision
          vector *)
}

val pp_outcome : outcome Fmt.t

type search_stats = {
  engine_runs : int;  (** engine executions: distinct runs, probes, shrink replays *)
  engine_steps : int;  (** total simulation steps across all those executions *)
  cache_hits : int;  (** {!Statecache} subtree prunes ([`Source] only, else 0) *)
  cache_misses : int;  (** state-cache lookups that found nothing *)
  cache_evictions : int;  (** entries displaced by the cache's capacity bound *)
}
(** Search-effort counters, reported through the [?stats] callback of
    {!explore}.  Deliberately {e not} part of {!outcome}: the outcome is
    the verdict, compared whole-record across POR tiers and pinned in
    tests, while these counters describe the effort behind it — probes
    and shrink replays included. *)

val pp_search_stats : search_stats Fmt.t

val shrink : reproduces:(int list -> bool) -> int list -> int list
(** Greedily minimise a violating decision vector: zero decisions and strip
    the implied default suffix while [reproduces] keeps returning [true].
    Returns the input unchanged when it does not reproduce. *)

type divergence = { position : int; choice : int; degree : int }
(** Where a replay left the tree its decision vector was recorded
    against: [choice] is not a branch of position [position], whose
    observed branching degree is [degree]. *)

val replay :
  ?record:bool ->
  ?max_steps:int ->
  ?abort:Abort.t ->
  arena:Engine.arena ->
  decisions:int array ->
  crash:Crash.t ->
  unit ->
  Engine.result * divergence option
(** The one replay rule of the explorer, its shrinker and {!Chaos}: run
    [decisions] from the root of [arena]'s subject through
    {!Engine.run_trace} and return the
    result with the first position whose decision does not index a real
    branch ([choice < 0] or [choice >= degree]), or [None] when every
    decision the run reached was a real branch.  Positions past the end
    of the run are not checked.  A divergent pick still resolves (the
    index is reduced modulo the degree), so the result is that of some
    schedule — just not the one [decisions] was recorded as; a caller
    that reports a witness must reject it.  [crash] and [abort] (default
    {!Abort.none}) are the plans of this one run; stateful plans must be
    fresh per call.  The call rewinds [arena], so one arena serves any
    number of replays of its subject, one at a time.  Defaults as
    {!Engine.run_trace}. *)

val explore :
  ?max_runs:int ->
  ?max_steps:int ->
  ?shrink_violations:bool ->
  ?record:bool ->
  ?por:[ `Off | `Sleep | `Source ] ->
  ?statecache:Footprint.t array option Statecache.t ->
  ?cache_capacity:int ->
  ?abort:(unit -> Abort.t) ->
  ?stats:(search_stats -> unit) ->
  n:int ->
  model:Memory.model ->
  crash:(unit -> Crash.t) ->
  setup:(Engine.Ctx.t -> 'a) ->
  body:('a -> pid:int -> unit) ->
  check:(Engine.result -> string option) ->
  unit ->
  outcome
(** [setup] runs once per search, before the first run, into the
    search's {!Engine.arena}; every run starts from the state [setup]
    left, rewound.  Host-side
    state that [setup] creates and a run mutates — a private array, a
    node registry, a counter [check] reads — must be put back before each
    run by a reset [setup] registers through {!Engine.Ctx.on_rewind};
    the registry locks register theirs.  [body] and [check] are called
    per run as before.

    [crash] builds a fresh (stateful) plan per run.  [abort] (default
    {!Abort.none}) likewise builds a fresh abort plan per run — the abort
    decision axis explored alongside the schedule.  [record] (default
    false) keeps each run's event history for checks that scan it
    ({!Props.bounded_exit}, say), and turns the reduced tiers off: set it
    too for a check that reads the engine's history monitors
    ({!Props.weak_me_intervals}, {!Props.no_lost_wakeup},
    {!Props.system_recovery}), which see the order of notes across
    processes that the reduction does not preserve and the state key
    does not cover.  Leave it off when the check only reads the
    aggregate statistics.  [check] returns [Some
    msg] on a property violation; exploration stops at the first one and,
    with [shrink_violations] (default true), minimises its decision vector
    before reporting.  Shrink candidates are replayed by {!replay}'s rule,
    in the search's arena, and rejected when they diverge, so the reported
    vector always witnesses the violation it claims.

    [por] selects the partial-order reduction tier (default [`Sleep]):

    - [`Off]: plain exhaustive DFS over the schedule tree.
    - [`Sleep]: sleep-set reduction — the reduced search with every
      sibling demanded, so a sibling schedule is skipped only when the
      step it deviates with is independent — by the {!Footprint} oracle —
      of every step explored since the deviating process was put to
      sleep; roughly one representative per Mazurkiewicz trace class is
      executed.  No race scan and no state cache.  Siblings are visited
      in DFS preorder, so it reports the {e identical} [exhausted]
      verdict, first violation, and shrunk witness as [`Off].
    - [`Source]: source-set dynamic POR with state caching on top of the
      sleep sets.  A sibling is explored only when an {e observed} race
      in some explored run demands its reversal ({!Footprint.Race}), and
      a decision node whose engine state key ({!Engine.run_trace}'s
      [on_state_key]) was already fully explored under a sleep mask ⊆ the
      current one prunes its whole subtree ({!Statecache}).  Explores a
      subset of [`Sleep]'s runs (equal in the worst case; the run count
      is not guaranteed smaller, but is on every benched subject).
      The exploration order is demand-driven, so a reported violation may
      be a {e different} witness of the same property failure than
      [`Off]/[`Sleep]'s preorder-first one (shrinking usually
      re-converges them).  The [exhausted] verdict and the answer to
      "does a violation exist" agree with [`Sleep]'s up to state-key
      collisions: the key is built from digests ([Memory.fingerprint],
      per-process answer-stream hashes, folded aggregates), and two
      distinct states whose digests collide share a key, so the cache
      can prune a subtree that was never explored and report
      [exhausted] for a tree it did not cover.  [cache_capacity = 0]
      rules this out at the cost of the pruning; the ROADMAP item "Make
      state-cache pruning sound" tracks an exact key.

    Both reduced tiers require [check] to be schedule-robust (aggregate
    statistics, not step counts or latencies) and runs to terminate
    within [max_steps] (a timed-out run's node falls back to unpruned
    expansion).  They automatically downgrade to [`Off] when they cannot
    be sound: under [record] (event order between independent steps is
    not preserved), for [n > 62] (sibling sets and sleep masks are one
    int wide), and for schedule-sensitive crash {e or abort} plans
    ({!Crash.por_class} / {!Abort.por_class} = [Sensitive] — every
    waiting-history-driven abort plan, e.g. {!Abort.impatient}, is
    Sensitive, so abort exploration runs unreduced by construction).

    [statecache] injects the [`Source] search's single state cache
    (tests use degenerate hashes/capacities to exercise collision
    behaviour); by default a fresh cache of [cache_capacity] (default
    65536) entries is built per call.  [cache_capacity = 0] disables
    state caching — the source-set reduction still applies.  Both are
    ignored outside [`Source].

    [stats], when given, is called exactly once, after the search
    completes (including shrinking), with the {!search_stats} effort
    counters for this call. *)

val explore_parallel :
  ?max_runs:int ->
  ?max_steps:int ->
  ?shrink_violations:bool ->
  ?por:[ `Off | `Sleep | `Source ] ->
  ?domains:int ->
  ?stats:(search_stats -> unit) ->
  n:int ->
  model:Memory.model ->
  crash:(unit -> Crash.t) ->
  setup:(Engine.Ctx.t -> 'a) ->
  body:('a -> pid:int -> unit) ->
  check:(Engine.result -> string option) ->
  unit ->
  outcome
(** Compatibility shim, kept only because [rmebench/verify.ml] still calls
    it for its [wr-me-n2-par] subject: forwards every argument to
    {!explore} and ignores [domains], so the outcome is {!explore}'s.  It
    is removed by the next change to the benchmark, together with that
    subject. *)
