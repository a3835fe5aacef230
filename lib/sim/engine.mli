(** The simulation engine.

    Runs [n] simulated processes over a shared {!Memory.t}.  Each process is
    an OCaml computation performing the effects of {!Api}; the engine
    suspends it at every shared-memory instruction, lets the configured
    {!Sched.t} pick who steps next, applies the instruction, charges RMRs,
    and consults the {!Crash.t} plan to inject failures immediately before
    or after the instruction.  A crash discards the process's continuation
    (private state, program counter — §2.2 of the paper) and restarts its
    body from scratch; shared memory persists.

    Local-spin waits ({!Api.spin_until}) park the process; a write to the
    awaited cell wakes it, charging one re-fetch, so busy-waiting costs O(1)
    RMRs per handoff as in the paper's model. *)

(** Registration context handed to [setup]. *)
module Ctx : sig
  type t

  val memory : t -> Memory.t

  val n : t -> int

  val register_lock : t -> string -> int
  (** Registers a lock instance and returns its id, used in {!Event.note}
      milestones and per-lock statistics.  Call during [setup] only. *)

  val on_rewind : t -> (unit -> unit) -> unit
  (** [on_rewind ctx f] registers the reset of host-side state that a run
      mutates: a private per-process array, a node registry.  An {!arena}
      constructs its subject once for all its runs, and [f] runs before
      every one of them, after the store has been rewound to its
      post-construction image; it must put that state back as [setup]
      left it.  Setup code that keeps such state and registers no reset
      carries one run's state into the next.  Call during [setup] only. *)
end

(** {1 Online folds}

    The facts the engine's online folds ({!Folds}) leave in a run's
    result: passages, lock occupancy, abort statistics, and the online
    history monitors' {!monitors}.  The folds run over the notes, crashes
    and RMR charges the engine handles one at a time, whatever the event
    sink, and allocate nothing per step.  The monitors' state is not in
    the state key {!run_trace} reports. *)
include module type of struct
  include Folds.Types
end

type proc_stats = {
  passages : passage list;  (** in execution order *)
  crashes : int;
  completed : int;  (** satisfied requests *)
  max_level : int;  (** highest BA-Lock level reported via [Level] notes *)
}

(** Watchdog verdict on an abnormal end state. *)
type stall_kind =
  | Deadlock  (** every live process parked, no writer left to wake them *)
  | Livelock
      (** timed out with processes still taking steps, but nobody satisfied
          a request within the trailing stall window *)
  | Starvation
      (** timed out with some processes progressing while the culprits went
          a whole stall window without satisfying a request *)
  | Underbudget
      (** timed out, yet every live process progressed within the trailing
          window — the run was healthy and [max_steps] was simply too
          small; raise the budget rather than suspect the lock *)

type stall = {
  stall_kind : stall_kind;
  culprits : (int * string) list;
      (** the stuck (for [Starvation], the starved; for [Livelock], the
          fruitlessly spinning; for [Deadlock]/[Underbudget], all live)
          pids, each with a description of where it stands:
          ["ncs"], ["entry"], ["cs"], ["holding(<lock>)"], with
          [" parked@<cell>"] appended when it sits on a spin wait *)
}

type result = {
  steps : int;
  total_rmr : int;
  rmr_by_kind : (Api.kind * int) list;
      (** where the remote references came from: plain reads, writes, CAS,
          FAS, FAA, or spin fetches (the initial fetch and post-wake
          refetches of local-spin waits) *)
  total_crashes : int;
      (** per-process crash count summed over pids; a system-wide crash
          contributes one per live process *)
  system_crashes : int;  (** system-wide crashes fired by the plan's [system] axis *)
  procs : proc_stats array;
  locks : lock_stats array;
  cs_max : int;  (** max simultaneous occupancy of the application CS *)
  deadlocked : bool;
  timed_out : bool;
  stall : stall option;
      (** diagnosis when the run ended abnormally ([deadlocked] or
          [timed_out]); [None] on clean termination.  Guarantees that
          [timed_out] is never an undiagnosed verdict: the watchdog always
          classifies it and names culprit pids. *)
  aborts : abort_stat list;
      (** one record per delivered abort signal, resolved records in
          resolution order followed by the still-pending ones; [[]] unless
          an {!Abort.t} plan was supplied.  {!abort_log} lists them as the
          signals that replay them. *)
  crash_log : Crash.fired list;
      (** every crash the engine delivered, in delivery order: an on-op
          crash with the consult's op index and point, an asynchronous
          crash of a live process, and one entry ([f_pid = -1]) per
          system-wide crash, none for the per-process crashes it causes.
          A plan's decision that reaches nobody (an asynchronous crash
          aimed at a halted pid) is not logged.  {!Crash.replay_fired}
          re-injects exactly these crashes under the same schedule. *)
  monitors : monitors;
      (** the online history monitors' facts; equal under every sink *)
  events : Event.t list;
      (** what the event sink retained: the full history under [record] (a
          [Keep] sink), the trailing window under a [Ring] sink, [[]] under
          the default dropping sink.  Every other field is the same under
          all three. *)
}

val pp_stall : stall Fmt.t

val abort_log : result -> Abort.fired list
(** [result.aborts] as the signals the engine delivered, in signal order
    (signal step, then pid): an on-op signal with the victim's op index,
    an asynchronous one with [a_op_index = -1].  A plan's decision the
    engine ignored (its victim was already signalled, outside every entry
    section, or halted) is not listed, so {!Abort.replay_fired} of the log
    re-delivers exactly these signals under the same schedule. *)

val run :
  ?mode:[ `Auto | `Fast | `Full ] ->
  ?sink:Event.Sink.t ->
  ?record:bool ->
  ?trace_ops:bool ->
  ?max_steps:int ->
  ?stall_window:int ->
  ?on_crash:(pid:int -> step:int -> unit) ->
  ?on_op:(Crash.op_info -> unit) ->
  ?abort:Abort.t ->
  n:int ->
  model:Memory.model ->
  sched:Sched.t ->
  crash:Crash.t ->
  setup:(Ctx.t -> 'a) ->
  body:('a -> pid:int -> unit) ->
  unit ->
  result
(** [run ~n ~model ~sched ~crash ~setup ~body ()] is
    [run_in ~arena:(arena ~n ~model ~setup ~body) ~sched ~crash ()]: it
    constructs a fresh {!arena} of its own — a store, and [setup] called
    once into it (lock construction; no RMR accounting) — then runs
    [body shared ~pid] for every pid until all bodies return, a deadlock is
    detected (every live process parked), or [max_steps] (default 5e6)
    elapses.  [record] keeps the event history; [trace_ops] additionally
    records every instruction (expensive — tests only).

    [sink] routes the event stream explicitly and overrides [record]'s
    default: {!Event.Sink.drop} (the default when neither [record] nor
    [trace_ops] is set) skips event construction entirely — a steady-state
    step then allocates only at the effect boundary, 2 minor words on
    OCaml 5.1 (the runtime continuation) for every instruction but the
    window-marking FAS and write and [fas_persist], which still build
    their view per call: argument-free ones ([step], [yield]) need no
    operands, and [read], [write], [cas], [fas], [faa], [note] and the
    spins pass theirs through the domain's {!Api.register} — while
    {!Event.Sink.keep} retains everything ([record]'s behaviour),
    and {!Event.Sink.ring} keeps a bounded trailing window for post-mortem
    diagnosis of long runs.

    [mode] selects the instrumentation contract:
    - [`Auto] (default): each bookkeeping layer (per-instruction crash/abort
      consults, answer-stream digests, event emission) runs only when the
      supplied configuration needs it.  Results are byte-identical to
      [`Full]'s.
    - [`Fast]: asserts that {e nothing} requires instrumentation — raises
      [Invalid_argument] when a crash or abort plan (other than the [none]
      sentinels), a wanting sink, [trace_ops] or an [on_op]/[on_crash] hook
      is supplied.  Use it in benchmarks to fail loudly instead of
      silently falling off the fast path.
    - [`Full]: forces the instrumented code paths on even when nothing
      consumes their output — the differential baseline for measuring the
      fast path's gain.

    [stall_window] is the watchdog's look-back horizon (in global steps)
    for the timeout diagnosis recorded in [result.stall]; default
    [max 1_000 (max_steps / 8)].

    [on_op] is the site-discovery hook: it observes the {!Crash.op_info} of
    every instruction a process is about to execute — the same view the
    crash plan gets, in the same order — so a caller can enumerate the
    crash sites [(pid, op_index, kind, cell)] of a run (the sweep engine's
    discovery pass).  It fires before the crash plan is consulted, so
    instructions suppressed by a [Crash Before] are still observed.  The
    engine refills one record per run for every instruction, so a hook
    that keeps it past the call must copy its fields.

    [abort] (default {!Abort.none}) is the abort decision axis: the plan
    is consulted once per iteration (after the crash plan's asynchronous
    and system consults) and once per instruction (immediately {e before}
    the crash plan's [on_op]), and each positive decision delivers an
    abort signal to its victim — provided the victim is live and inside
    some lock's entry section; everything else is a no-op.  Signals wake
    abortable spins ({!Api.spin_abortable}), are visible to
    {!Api.poll_abort}, and resolve per the {!abort_result} cases, each
    resolution appending an {!abort_stat} to [result.aborts].  Passing
    [Abort.none] itself (physical equality) skips all abort bookkeeping.

    [run], {!run_in} and {!run_trace} rewind an arena the same way and
    share one step loop; [run_trace] differs only in the pick function,
    where it also records its footprints and state key.  [run] makes its
    own arena on every call, so it is re-entrant and domain-safe: all
    engine state (store, fibers, the effect handler and its continuation
    slots, statistics) is allocated per call, and the operand register
    its fibers fill is the calling domain's own, so independent runs may
    execute concurrently on separate OCaml domains — {!Rme_check.Pool}
    runs independent plans and seeds that way.  The caller must supply
    domain-safe arguments: build stateful [sched]s and [crash] plans
    fresh per run, and keep shared mutable state out of the
    [setup]/[body]/[on_crash] closures. *)

(** {1 Arenas} *)

type arena
(** An engine built from its subject, reused across runs: the store with
    the subject constructed into it, the per-process arrays, the
    pending-operand records, the continuation and view slots, the ready
    buffers, the parked-cell table, the passage vectors, and the degree
    and footprint buffers {!run_trace} reports through.  Each run rewinds
    it in place, so the runs of one explorer search neither construct
    their subject again nor allocate engine storage once the first ones
    have sized it.  An arena serves one run at a time and belongs to the
    domain that runs it: one arena per search, or per campaign subject
    and domain ({!Rme_check.Chaos} keeps one slot per domain). *)

val arena :
  n:int -> model:Memory.model -> setup:(Ctx.t -> 'a) -> body:('a -> pid:int -> unit) -> arena
(** [arena ~n ~model ~setup ~body] creates a store for [n] processes,
    runs [setup] into it once and seals the post-construction image: the
    store's cells and their initial contents ({!Memory.seal}), the lock
    registry, the shared value and the [body] closure over it.  Every run
    on the arena starts by rewinding the store to that image
    ({!Memory.rewind}) and running the resets [setup] registered through
    {!Ctx.on_rewind}; its result, degrees, footprints and state keys equal
    those of the same run on a fresh arena.  The construction's cells and
    lock handles serve every run, while cells a run allocates (queue
    nodes) are dropped by the next run's rewind. *)

val run_in :
  ?mode:[ `Auto | `Fast | `Full ] ->
  ?sink:Event.Sink.t ->
  ?record:bool ->
  ?trace_ops:bool ->
  ?max_steps:int ->
  ?stall_window:int ->
  ?on_crash:(pid:int -> step:int -> unit) ->
  ?on_op:(Crash.op_info -> unit) ->
  ?abort:Abort.t ->
  arena:arena ->
  sched:Sched.t ->
  crash:Crash.t ->
  unit ->
  result
(** [run_in ~arena ~sched ~crash ()] is {!run} on [arena]'s subject: it
    rewinds the arena and runs it under [sched], taking every optional
    argument of [run] with the same meaning and defaults ([mode]'s checks
    included).  Its result equals the same {!run} on a fresh arena and
    keeps nothing of the arena, so a caller may hold it across later runs. *)

(** {1 Decision-vector replay} *)

type trun = {
  tr_result : result;  (** freshly built: keeps nothing of the arena *)
  tr_len : int;  (** decision positions the run reached *)
  tr_degrees : int array;
      (** the arena's degree buffer: the branching degree of position [i]
          in [tr_degrees.(i)] for [i < tr_len]; later slots are junk *)
  tr_footprints : Footprint.t array;
      (** the arena's footprint buffer under [por] ([[||]] otherwise): the
          flat per-choice footprints in decision order, position [i]'s at
          the sum of the earlier degrees *)
}

val run_trace :
  ?record:bool ->
  ?max_steps:int ->
  ?stall_window:int ->
  ?por:bool ->
  ?footprint_crashy:(int -> bool) ->
  ?state_key_at:int ->
  ?on_state_key:(int array -> unit) ->
  ?abort:Abort.t ->
  arena:arena ->
  decisions:int array ->
  crash:Crash.t ->
  unit ->
  trun
(** [run_trace ~arena ~decisions ~crash ()] runs, from the root of
    [arena]'s subject, the schedule
    identified by [decisions] exactly as {!run} under {!Sched.trace} would
    (position [i] picks the [decisions.(i)]-th smallest runnable pid,
    default 0 past the end, an index outside the ready set reduced modulo
    its size), and reports the branching degree observed at
    every decision position — the explorer's one engine entry.

    [por] records, at every decision position, one {!Footprint.t} per
    runnable pid in ascending pid order — the order of the ready set every
    pick indexes — before the pick.  Indexing by the per-position
    degrees recovers the footprint of every (decision position, choice)
    pair; this is the oracle behind the explorer's partial-order
    reduction.  [footprint_crashy pid] (default [fun _ -> false]) marks
    pids whose steps the crash plan may strike (see {!Crash.por_class});
    their footprints carry the crashy flag so crash teardown is treated as
    part of the step.

    [state_key_at], when non-negative, makes the run call [on_state_key]
    once, at decision position [state_key_at] (after that position's
    asynchronous crashes and footprint pushes, before the pick), with a
    compact digest of the whole engine state: store
    contents/versions/cache rows, per-process control state (via
    per-process digests of the answer stream each body has consumed), and
    every aggregate statistic a schedule-robust check can observe.  Equal
    states give equal keys, and check-equivalent continuations follow
    from equal states — the explorer's state cache dedups on it.  The
    converse is not exact: the key's elements are 63-bit digests, so
    distinct states can collide.  Step counts, latencies and the stall
    classification are excluded, matching the POR contract.

    [arena] is the subject and storage the run rewinds and runs in.  The
    returned degrees and footprints are the arena's own buffers, not
    copies: they stay valid until the next run on that arena, so a caller
    that runs again before it is done with them copies what it still
    needs.  The [result] is built afresh and stays valid.

    [crash] and [abort] (default {!Abort.none}) are the plans of this one
    run; stateful plans must be fresh per call.  The hooks of {!run}
    ([on_op], [on_crash], [trace_ops], [sink]) are not available.
    Domain-safety matches {!run}, per arena: runs on different arenas may
    execute concurrently on separate domains, runs on one arena may
    not. *)

type trace_opts
(** The options of {!run_trace} that stay fixed across the runs of one
    search: [record], [max_steps], [stall_window], [por],
    [footprint_crashy] and [on_state_key]. *)

val trace_opts :
  ?record:bool ->
  ?max_steps:int ->
  ?stall_window:int ->
  ?por:bool ->
  ?footprint_crashy:(int -> bool) ->
  ?on_state_key:(int array -> unit) ->
  unit ->
  trace_opts
(** Those options with {!run_trace}'s defaults, built once for a search,
    so that its runs pass none of them one by one. *)

val run_with :
  trace_opts ->
  state_key_at:int ->
  abort:Abort.t ->
  arena:arena ->
  decisions:int array ->
  crash:Crash.t ->
  trun
(** [run_with o ~state_key_at ~abort ~arena ~decisions ~crash] is
    {!run_trace} under the options [o], with the per-run arguments
    explicit ([state_key_at = -1]: no state key).  {!run_trace} is
    [run_with] over options built for the one call; a search builds them
    once and its runs box no optional argument. *)

(** {1 Result helpers} *)

val completed_passages : result -> passage list
(** All failure-free passages, across processes. *)

val max_rmr : result -> int
(** Largest RMR count over {e all} passages (a crashed passage's partial
    cost counts: the paper charges RMRs per passage including those ended
    by failures). *)

val max_rmr_super : result -> int
(** Largest total RMR count of a super-passage (all its passages summed). *)

val avg_rmr : result -> float
(** Mean RMRs per passage over all passages. *)

val avg_rmr_super : result -> float
(** Mean RMRs per super-passage (total RMRs / satisfied requests). *)

val total_completed : result -> int

val latencies : result -> int list
(** Sorted step-latencies of the completed passages. *)

val percentile : int list -> float -> int
(** [percentile sorted q] with [q] ∈ [0, 1] over a sorted list. *)

val pp_summary : result Fmt.t
