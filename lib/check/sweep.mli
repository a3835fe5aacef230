(** Exhaustive crash-site sweep engine and cross-lock conformance matrix.

    The paper's guarantees are quantified over {e where} a crash lands:
    WR-Lock is weakly recoverable precisely because one sensitive FAS
    exists (§4, Theorem 4.2), while the strongly recoverable locks must
    survive a crash at {e every} instruction (Theorems 5.17–5.19).  This
    module makes that quantification mechanical:

    + {b discovery} — run the scenario once, crash-free, on the default
      schedule, and collect every executed instruction site
      [(pid, op_index, kind, cell)] through the engine's [on_op] hook;
    + {b enumeration} — turn the sites into crash plans:
      [{Before, After}] × each site, an asynchronous crash at each park
      point (spin sites), and pairwise site combinations once the crash
      budget [F ≥ 2];
    + {b verification} — drive every plan through {!Explore.explore},
      checking a battery of {!Props}-style properties on every explored
      schedule; with [jobs > 1] the plans are spread over that many
      domains, each plan still one sequential search.

    On top of the engine, {!matrix} evaluates a list of lock subjects
    against their batteries and produces a deterministic lock × property
    table (pass / expected-violation / FAIL with shrunk witness vectors):
    the cross-lock conformance matrix the [conformance] binary renders.

    Determinism: discovery is a single deterministic run; plan order is a
    pure function of the discovered sites; each plan is one sequential
    search, and the per-plan results are merged in plan order whatever
    domain ran them.  The whole {!campaign}, and everything rendered by
    {!matrix_cells}/{!matrix_details}, is therefore byte-identical across
    [jobs]. *)

open Rme_sim

(** {1 Sites and plans} *)

(** One executed instruction site from the discovery run.  [step] is the
    global engine step at which the site executed in the discovery run
    (the anchor for asynchronous park-point crashes); [op_index] is the
    per-process instruction counter, which {!Crash.at_op} addresses
    schedule-independently. *)
type site = { pid : int; op_index : int; kind : Api.kind; cell : string option; step : int }

val pp_site : site Fmt.t

val site_signature : site -> string
(** The dedup key: [(kind, cell, op_index)] — deliberately {e without} the
    pid, so symmetric processes contribute each distinct instruction once
    and campaigns stay tractable. *)

(** A crash plan derived from discovered sites. *)
type plan =
  | No_crash  (** the crash-free baseline exploration *)
  | Single of site * Crash.point
  | Async_park of site
      (** asynchronous crash anchored at a spin site's discovery step —
          reaches the process while it is parked, which no
          before/after-instruction plan can *)
  | Pair of (site * Crash.point) * (site * Crash.point)
      (** two crashes in one history (budget [F = 2]) *)
  | System of int
      (** system-wide crash ({!Crash.system_at}) at this global step — the
          whole system loses its continuations at once *)
  | Sys_pair of int * int
      (** two system-wide crashes (budget [F = 2]): the second strikes the
          system while it is recovering from the first *)

val plan_label : plan -> string
(** Deterministic human-readable label, e.g. ["after p1#23 fas wr.tail"]. *)

val crash_of_plan : plan -> unit -> Crash.t
(** Fresh stateful {!Crash.t} per run, as the explorer requires. *)

(** {1 Scenarios, properties, configuration} *)

(** A scenario packages the [setup]/[body] pair the explorer drives —
    existentially, so heterogeneous subjects fit in one list. *)
type scenario = Scenario : { setup : Engine.Ctx.t -> 'a; body : 'a -> pid:int -> unit } -> scenario

val lock_scenario : ?cs_yields:int -> requests:int -> (Engine.Ctx.t -> Harness.lock) -> scenario
(** The standard Algorithm-1 loop over a lock maker, with a critical
    section of [cs_yields] scheduling points (default 4 — long enough that
    an illegal CS overlap is actually schedulable). *)

(** One property of a battery.  [expected_under_crash] encodes the
    subject's recoverability class: a violation found under a {e crashing}
    plan is reported as an expected consequence of the class (WR-Lock's
    weak mutual exclusion, a non-recoverable lock's deadlock) rather than
    a FAIL.  Violations under {!No_crash} are always FAILs.
    [needs_record] marks checkers that read the order of events across
    processes (the event history, or the engine's history monitors):
    their plans are explored with [record], unreduced and uncached. *)
type prop = {
  prop_name : string;
  check : Engine.result -> string option;
  expected_under_crash : bool;
  needs_record : bool;
}

val me_prop : ?expected_under_crash:bool -> unit -> prop
(** Application-CS mutual exclusion ({!Props.mutual_exclusion}). *)

val sf_prop : ?expected_under_crash:bool -> requests:int -> unit -> prop
(** Starvation freedom ({!Props.starvation_freedom}). *)

val weak_me_prop : lock_id:int -> prop
(** Interval-form weak ME ({!Props.weak_me_intervals}); never expected. *)

val responsiveness_prop : lock_id:int -> prop
(** Theorem 4.2 responsiveness ({!Props.responsiveness}); never expected. *)

val abort_liveness_prop : supported:bool -> prop
(** {!Props.abort_liveness} at the {!Props.default_abort_expect} bound;
    never expected — an abort must resolve promptly no matter where a
    crash lands.  Vacuous (and safe to include) when the sweep injects no
    aborts. *)

val no_lost_wakeup_prop : unit -> prop
(** {!Props.no_lost_wakeup} at the default overtake bound; never
    expected.  Needs event recording. *)

val abort_rmr_prop : unit -> prop
(** {!Props.abort_rmr} at the default bound; never expected. *)

(** Which failure model the enumeration quantifies over: the paper's
    per-process crashes (any single process fails at any instruction), or
    the Jayanti–Jayanti–Joshi system-wide model (every process's
    continuation is erased at one engine step).  Under [System_wide] the
    only free coordinate of a crash is {e when}, so plans are
    {!System}[ step] for every distinct global step the deduplicated
    discovery sites executed at (plus {!Sys_pair} combinations at budget
    ≥ 2). *)
type crash_model = Per_process | System_wide

val crash_model_string : crash_model -> string

type cfg = {
  max_runs_per_plan : int;  (** explorer budget per plan *)
  max_steps : int;  (** engine step bound per run *)
  budget : int;
      (** crash budget F: 0 sweeps only {!No_crash}, 1 adds the single-site
          plans and park points (per-process) or single-step system crashes
          (system-wide), ≥ 2 adds pairwise combinations *)
  site_cap : int;  (** keep at most this many deduplicated sites *)
  plan_cap : int;  (** keep at most this many plans *)
  crash_model : crash_model;  (** which failure model the plans quantify over *)
  abort_timeout : int option;
      (** the abort-injection axis: [Some t] layers
          {!Rme_sim.Abort.impatient}[ ~timeout_steps:t ()] over {e every}
          plan's exploration (including {!No_crash}), so each crash plan
          is additionally quantified over impatient waiters; [None] (the
          default) injects no aborts.  Impatience plans are
          schedule-sensitive, so the explorer runs unreduced under this
          axis. *)
  jobs : int;  (** domains the plans are spread over (1 = all on the calling domain) *)
}

val default_cfg : cfg
(** [{ max_runs_per_plan = 300; max_steps = 4_000; budget = 1;
      site_cap = 96; plan_cap = 256;
      crash_model = Per_process; abort_timeout = None; jobs = 1 }] *)

(** {1 The sweep} *)

type finding = {
  f_plan : plan;
  f_prop : string;
  f_message : string;
  f_witness : int list;  (** shrunk decision vector of the violating run *)
  f_expected : bool;
}

val pp_finding : finding Fmt.t

type campaign = {
  sites_seen : int;  (** executed instruction sites before dedup/cap *)
  sites : site list;  (** deduplicated, capped, in discovery order *)
  sites_truncated : bool;  (** [site_cap] dropped sites — always surfaced *)
  plans_total : int;  (** plans the enumeration produced *)
  plans_run : int;  (** plans actually swept ([plan_cap]) *)
  plans_truncated : bool;
  plans_exhausted : int;
      (** swept plans whose every expectation class explored its whole
          schedule tree; the others stopped at [max_runs_per_plan] or at a
          violation, so their verdicts rest on a sample of schedules *)
  runs : int;  (** schedules executed across all plans and classes *)
  findings : finding list;  (** in plan order; at most one per (plan, prop) *)
}

val discover : cfg -> n:int -> model:Memory.model -> scenario -> int * site list * bool
(** [(sites_seen, deduplicated capped sites, truncated)] of the crash-free
    default-schedule discovery run. *)

val plans_of_sites : cfg -> site list -> plan list
(** The deterministic, uncapped plan enumeration from discovered sites:
    {!No_crash} first, then before/after singles in site order, then the
    park points, then the pairs (budget permitting).  {!sweep} applies
    [plan_cap] on top and reports the truncation. *)

val sweep : cfg -> n:int -> model:Memory.model -> props:prop list -> scenario -> campaign
(** The full campaign: discover, enumerate, explore every plan against
    every property.  Each plan is explored once per expectation class —
    unexpected properties first (any hit is a FAIL), then, on a clean
    pass, expected properties (hits are recorded as expected
    violations) — so an expected violation can never mask a FAIL of the
    same plan. *)

(** {1 The conformance matrix} *)

type subject = {
  subject_name : string;
  subject_n : int;  (** process count this subject is driven with *)
  subject_scenario : scenario;
  subject_props : prop list;
}

val standard_subject :
  name:string ->
  n:int ->
  requests:int ->
  ?cs_yields:int ->
  ?abortable:bool ->
  recoverability:[ `None | `Weak | `Strong ] ->
  (Engine.Ctx.t -> Harness.lock) ->
  subject
(** Battery by recoverability class: strong → ME + SF (nothing expected);
    none → ME + SF with SF violations expected under crashes (a
    non-recoverable lock may deadlock, but must never break ME); weak →
    ME (expected under crashes: the FAS gap) + interval weak-ME +
    responsiveness, both of which must hold (Theorem 4.2).  Weak subjects
    assume the lock registers itself first (lock id 0), which every
    registered maker does.  [abortable] (default false) appends the abort
    battery — {!abort_liveness_prop}, {!no_lost_wakeup_prop},
    {!abort_rmr_prop} — for subjects with a real abort path (pair with
    [cfg.abort_timeout] to actually inject aborts). *)

type verdict =
  | Pass
  | Expected of int  (** number of expected-violation findings *)
  | Fail of finding  (** first unexpected finding, with its witness *)

val verdict_string : verdict -> string

type mrow = { row_subject : string; row_verdicts : (string * verdict) list; row_campaign : campaign }

val matrix : cfg -> model:Memory.model -> subjects:subject list -> mrow list
(** One {!sweep} per subject, verdicts aggregated per property. *)

val matrix_cells : mrow list -> string list * string list list
(** [(header, rows)] for {!Rme.Report.table}: subject, one column per
    property name occurring in any battery ("-" where a subject does not
    check it), then deterministic site/plan counts, the exhausted plan
    count out of the swept plans, and truncation flags. *)

val matrix_details : mrow list -> string list
(** Deterministic detail lines: one per FAIL (plan label, message, shrunk
    witness vector — enough to reproduce by replaying the vector under the
    labelled crash plan), one per truncated campaign (what was dropped),
    and one per subject with a plan that did not exhaust (how many).  Empty when
    every cell is pass/expected and every plan exhausted. *)

val matrix_failures : mrow list -> (string * finding) list
(** All FAIL findings, with their subject names ([[]] = conformant). *)
