(** Workload generation: scenarios, runs and parameter sweeps.

    A {!scenario} describes the failure regime of §2.5's three-way analysis
    — no failures, F "recent" failures, arbitrarily many failures — plus the
    batch-failure regime of §7.1.  {!run} drives a registered lock through
    the standard Algorithm-1 loop under a scenario and returns the engine
    result; the sweep helpers produce the (x, measurement) series the bench
    harness prints. *)

open Rme_sim

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

val crash_plan : scenario -> seed:int -> Crash.t

val abort_plan : scenario -> Abort.t
(** The abort-decision axis a scenario implies: {!Abort.impatient} for
    [Impatient], {!Abort.none} for every crash-only scenario. *)

type cfg = {
  n : int;
  model : Memory.model;
  requests : int;
  seed : int;
  scenario : scenario;
  record : bool;
  cs_yields : int;  (** critical-section length in scheduling points *)
  ncs_yields : int;  (** think time between requests *)
  max_steps : int;
}

val default_cfg : cfg

val run : Spec.t -> cfg -> Engine.result

val run_key : string -> cfg -> Engine.result

(** {1 Measurements} *)

type measurement = {
  max_rmr : float;  (** max RMRs over passages *)
  avg_rmr : float;  (** mean RMRs per passage *)
  avg_super_rmr : float;  (** mean RMRs per super-passage *)
  crashes : int;
  aborts : int;  (** abort signals resolved as [Res_aborted] *)
  max_level : int;  (** deepest BA level reached by any process *)
  satisfied : bool;  (** all requests satisfied (SF) *)
  me_ok : bool;  (** application-CS mutual exclusion held *)
  throughput : float;  (** satisfied requests per 1000 engine steps *)
}

val measure : Engine.result -> measurement

val sweep : Spec.t -> over:('a -> cfg) -> 'a list -> ('a * measurement) list
(** Run the lock once per parameter value, averaging nothing — runs are
    deterministic given the seed. *)

