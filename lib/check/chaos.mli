(** Chaos campaigns: seeded failure adversaries hunting for property
    violations, with a deterministic replay-and-shrink bridge.

    The paper's guarantees are stated against failures that strike
    anywhere — weak recoverability tolerates crashes anywhere (Theorem
    4.2), super-adaptivity prices level escalation in failures (Theorem
    5.17).  A campaign drives two adversary families over lock cases: the
    {e adaptive} ones watch the execution ({!Rme_sim.Crash}'s targeting
    plans and storms, {!Rme_sim.Abort.storm}); the {e oblivious} one
    ({!Oblivious}, [soak]'s default) runs a {!scenario} under a
    configuration drawn from the seed.  Each run is judged by the full
    property battery plus the adaptivity-contract monitors; on a violation
    the campaign turns the crashes and abort signals the engine delivered
    into a composite of one-shot plans ({!Rme_sim.Crash.replay_fired},
    {!Rme_sim.Abort.replay_fired}), re-confirms that this fixed plan
    replays the violation under the recorded schedule, and hands the
    decision vector to {!Explore.shrink} for a minimal witness.

    Everything is seeded: a campaign is a pure function of its
    configuration, and every reported witness replays deterministically.

    {b One arena per subject and domain.}  Each domain keeps one slot: the
    {!Rme_sim.Engine.arena} of the last subject it ran, with the
    {!Rme_sim.Engine.opts} its campaign runs share, keyed by the
    lock's [make] (physical equality) and the run's {!cfg} (structural
    equality: n, model, requests, CS and NCS yields, max steps).
    {!run_one}, {!replay} and {!shrink_witness} rewind the slot's arena
    when the key matches and build a new one that replaces it otherwise,
    so the seeds of one (case, adversary) pair, and a violation's confirm
    replay and shrink candidates, construct their lock stack once.  A run
    on the slot equals the same run on a fresh arena provided [make] is a
    deterministic function of its context and every piece of host state a
    run mutates is reset through {!Rme_sim.Engine.Ctx.on_rewind}; a fresh
    closure per run (a timing wrapper, say) always misses. *)

open Rme_sim

(** {1 Scenarios}

    The oblivious failure regimes of §2.5's three-way analysis and §7.1's
    batches, plus impatience.  [Rme.Workload] re-exports the type, printer
    and parser. *)

type scenario =
  | No_failures
  | Fas_storm of { f : int; rate : float }
      (** F unsafe (filter FAS-gap) failures — the adversary of Theorems
          5.17-5.19.  [rate] is the per-FAS crash probability. *)
  | Random_storm of { crashes : int; rate : float }
      (** arbitrary failures anywhere in the passage *)
  | Batch of { size : int; at_step : int; repeat : int; gap : int }
      (** §7.1: [repeat] batches of [size] simultaneous crashes, the first
          at [at_step], then every [gap] steps *)
  | Impatient of { timeout_steps : int; retries : int; backoff : float }
      (** timeout/impatience: every waiter that has been in its entry
          section for [timeout_steps] consecutive steps receives an abort
          signal, up to [retries] times per super-passage, with the
          effective timeout multiplied by [backoff] after each abort
          (deterministic — no crashes, no RNG). *)

val pp_scenario : scenario Fmt.t

val scenario_of_string : string -> scenario option
(** ["none"], ["fas:F"], ["storm:K"], ["batch:SIZE"],
    ["impatient:T[:RETRIES[:BACKOFF]]"] — plus the exact {!pp_scenario}
    rendering of every arm, so printed scenarios round-trip.  [None] for
    malformed input and for values the plans reject: a rate outside
    [0, 1], a negative count, size, step or gap, T ≤ 0, retries < 0 or
    backoff < 1. *)

val scenario_grammar : string
(** The compact grammar, for usage/error messages. *)

(** {1 Adversaries} *)

type adversary =
  | Holder of { rate : float; max_crashes : int }
      (** kill processes inside a lock's acquire→release span *)
  | Window of { rate : float; max_crashes : int }
      (** kill processes while a sensitive window is open: every crash is
          an unsafe failure *)
  | Offender of { victim : int; gap : int; times : int }
      (** re-crash one recovering process [gap] instructions into every
          restarted passage, [times] crashes total *)
  | Storm of { rate : float; max_crashes : int; gap : int; backoff : float }
      (** random crashes with a cooldown gap that scales by [backoff] *)
  | Sys_storm of { rate : float; max_crashes : int; gap : int; backoff : float }
      (** {e system-wide} crash bursts ({!Rme_sim.Crash.system_storm}): the
          whole system loses its continuations at once, with a cooldown
          gap that scales by [backoff] — the Jayanti–Jayanti–Joshi failure
          model driven adversarially *)
  | Impatient_storm of { rate : float; max_aborts : int; gap : int; backoff : float }
      (** abort signals instead of crashes ({!Rme_sim.Abort.storm}): the
          oldest waiter is told to give up, at most [max_aborts] times,
          with a cooldown gap that scales by [backoff].  Fires no crashes
          at all — the pure-impatience adversary. *)
  | Oblivious of scenario option
      (** the oblivious soak: each seed draws its own {!cfg} — [n] in
          2..8, 2..6 requests, the memory model, 0..5 CS and 0..2 NCS
          yields, 3,000,000 steps — in place of the campaign's, and, for
          [None], its {!scenario}.  The crash plan is seeded [seed + 7919]. *)

val pp_adversary : adversary Fmt.t
(** [Oblivious (Some sc)] prints as [sc]. *)

val adversary_of_string : string -> (adversary, string) result
(** Parses the CLI names [holder], [window], [offender], [storm],
    [sys-storm], [impatient-storm] (with the default parameters of
    {!standard_adversaries}, {!default_sys_storm} and
    {!default_impatient_storm}).  {!Oblivious} has none. *)

val adversary_name : adversary -> string
(** The CLI name of an adaptive adversary, the one {!adversary_of_string}
    parses: its {!pp_adversary} rendering up to the parameter list. *)

val standard_adversaries : adversary list
(** One per-process adversary of each kind, with campaign-tuned default
    parameters.  Does {e not} include {!Sys_storm}: the per-process
    campaigns pinned by the test suite predate the system-wide model, and
    system-crash campaigns opt in explicitly. *)

val default_sys_storm : adversary
(** The campaign-tuned {!Sys_storm}. *)

val default_impatient_storm : adversary
(** The campaign-tuned {!Impatient_storm}. *)

val plan : adversary -> seed:int -> Crash.t
(** Instantiate the (stateful) crash plan — fresh per run.
    {!Crash.none} for {!Impatient_storm}. *)

val abort_plan : adversary -> seed:int -> Abort.t
(** Instantiate the abort plan — {!Rme_sim.Abort.storm} for
    {!Impatient_storm}, {!Rme_sim.Abort.impatient} for an [Impatient]
    scenario, {!Rme_sim.Abort.none} otherwise. *)

(** {1 One adversarial run} *)

type cfg = {
  n : int;
  requests : int;
  model : Memory.model;
  cs_yields : int;  (** yields inside the critical section (overlap window) *)
  ncs_yields : int;  (** yields between requests (think time) *)
  max_steps : int;
}

val default_cfg : cfg

val setup : cfg -> adversary -> seed:int -> cfg * adversary
(** What seed [seed]'s run goes under: [cfg] and the adversary, except that
    an {!Oblivious} one swaps in the {!cfg} its seed draws and names its
    scenario. *)

type run = {
  cfg : cfg;  (** as run ({!setup}) *)
  adversary : adversary;  (** as run ({!setup}) *)
  res : Engine.result;
  fired : Crash.fired list;
      (** crashes the engine delivered, in order ([res.crash_log]) *)
  ab_fired : Abort.fired list;
      (** abort signals the engine delivered, in signal order
          ({!Rme_sim.Engine.abort_log}) *)
  decisions : int Vec.t;
      (** recorded schedule: per pick, the index into the ascending ready
          set ({!Sched.recording}).  The domain's slot buffer, valid until
          this domain's next {!run_one}; [Vec.to_array] copies what is
          kept. *)
}

val run_one : cfg -> make:(Engine.Ctx.t -> Harness.lock) -> adversary:adversary -> seed:int -> run
(** One seeded adversarial run: the adversary's plans under a recorded
    [Sched.random ~seed].  It keeps no event history ([res.events = []]):
    every check of {!battery} reads what the engine keeps whatever its
    sink, the history properties included ({!Rme_sim.Engine.monitors}).
    {!replay} of its logs and decisions records the history when one is
    wanted (a timeline, an event-based check).  The failures are read
    from the engine's result, not from the plans: a decision the engine
    ignored is not listed.  Runs in the domain's slot arena, recording
    into the slot's schedule buffer, which [decisions] is: the next
    [run_one] in this domain overwrites it, so a caller that keeps a
    run's schedule past that copies it. *)

val replay :
  cfg ->
  make:(Engine.Ctx.t -> Harness.lock) ->
  fired:Crash.fired list ->
  ?ab_fired:Abort.fired list ->
  decisions:int array ->
  unit ->
  Engine.result * bool
(** Deterministic re-execution through {!Explore.replay}, on the domain's
    slot arena for [make] and [cfg]: the recorded
    schedule, the logged crashes as a fresh composite
    {!Crash.replay_fired} plan and the logged abort signals as an
    {!Rme_sim.Abort.replay_fired} plan.  The replay records the event
    history, and every other field of its result equals the original
    run's; its own logs equal the ones it was given.
    Returns the result and whether the replay {e diverged} from the
    recorded branching structure ([true] = some decision named no real
    branch; reject the replay as unfaithful). *)

val shrink_witness :
  cfg ->
  make:(Engine.Ctx.t -> Harness.lock) ->
  fired:Crash.fired list ->
  ?ab_fired:Abort.fired list ->
  check:(Engine.result -> string option) ->
  int array ->
  int array
(** {!Explore.shrink} over faithful replays on the slot arena, as
    {!replay}'s: minimise the decision vector
    while the composite crash plan still reproduces a violation of
    [check].  Returns the input unchanged if it does not reproduce. *)

(** {1 Campaign} *)

type case = {
  case_name : string;
  case_make : Engine.Ctx.t -> Harness.lock;
  case_weak : bool;
      (** application lock is weakly recoverable: check the interval form
          of ME (consequence intervals) instead of plain ME *)
  case_ff_bound : int option;
      (** failure-free per-passage RMR contract, if the lock states one:
          a bound under CC at the campaign's [n], so [None] for
          {!Oblivious} runs, which draw both *)
  case_abortable : bool;
      (** the lock has a real abort path: hold it to the abort battery
          ({!Props.default_abort_expect}) on every run *)
}

val battery : case -> requests:int -> Engine.result -> string list
(** {!Props.check_battery} (with the weak interval form when [case_weak])
    plus the {!Props.failure_free_rmr} contract when stated — the check a
    campaign applies to every adversarial run. *)

type violation = {
  v_case : string;
  v_adversary : adversary;
  v_seed : int;
  v_problems : string list;  (** battery report of the discovering run *)
  v_fired : Crash.fired list;
  v_ab_fired : Abort.fired list;
  v_replay_ok : bool;
      (** the deterministic composite plan re-triggered a violation of the
          same property under the recorded schedule *)
  v_witness : int array;
      (** shrunk decision vector (= the recorded one when [not v_replay_ok]) *)
  v_detect_steps : int;
      (** engine steps from the first injection (crash or abort signal) to
          the end of the discovering run — the detection latency of the
          campaign *)
}

val pp_fired : Crash.fired Fmt.t
(** One fired crash: ["p2@op14(after,step 311)"], ["system(step 42)"]. *)

val pp_ab_fired : Abort.fired Fmt.t
(** One fired abort signal: ["abort:p2@async(step 311)"]. *)

val pp_violation : violation Fmt.t

type outcome = {
  runs : int;
  steps : int;  (** engine steps summed over the runs (not their replays) *)
  crashes : int;  (** crashes injected across all runs *)
  aborts : int;  (** abort signals delivered across all runs *)
  detect_steps : int;
      (** summed engine steps from the first injection of a run — crash or
          abort signal — to the end of that run, over the [detect_runs]
          runs in which the adversary fired.  [detect_steps / detect_runs]
          is the campaign's mean detection latency: how long after an
          injection the battery verdict on its consequences lands. *)
  detect_runs : int;
  violations : violation list;
}

val campaign :
  ?cfg:cfg ->
  ?jobs:int ->
  adversaries:adversary list ->
  runs:int ->
  seed_base:int ->
  case list ->
  outcome
(** [campaign ~adversaries ~runs ~seed_base cases] runs [runs] seeded runs
    for every (case, adversary) pair — seeds [seed_base] to
    [seed_base + runs - 1] — and post-processes each violation through the
    replay-confirm-shrink pipeline.  [jobs] shards the runs over OCaml
    domains via {!Pool} (default 1; the outcome is independent of the
    domain count). *)
