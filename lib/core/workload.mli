(** Workload generation: scenarios, runs and parameter sweeps.

    A {!scenario} ({!Rme_check.Chaos.scenario}, with its printer and parser
    re-exported here) is the failure regime of §2.5's three-way analysis.
    {!run} drives a registered lock through the standard Algorithm-1 loop
    under a scenario and returns the engine result; the sweep helpers
    produce the (x, measurement) series the bench harness prints. *)

open Rme_sim

type scenario = Rme_check.Chaos.scenario =
  | No_failures
  | Fas_storm of { f : int; rate : float }
  | Random_storm of { crashes : int; rate : float }
  | Batch of { size : int; at_step : int; repeat : int; gap : int }
  | Impatient of { timeout_steps : int; retries : int; backoff : float }

val pp_scenario : scenario Fmt.t
val scenario_of_string : string -> scenario option

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
(** [Sched.random ~seed] and the plans of [Chaos.Oblivious (Some scenario)]. *)

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

