open Rme_sim

type scenario = Rme_check.Chaos.scenario =
  | No_failures
  | Fas_storm of { f : int; rate : float }
  | Random_storm of { crashes : int; rate : float }
  | Batch of { size : int; at_step : int; repeat : int; gap : int }
  | Impatient of { timeout_steps : int; retries : int; backoff : float }

let pp_scenario = Rme_check.Chaos.pp_scenario
let scenario_of_string = Rme_check.Chaos.scenario_of_string

type cfg = {
  n : int;
  model : Memory.model;
  requests : int;
  seed : int;
  scenario : scenario;
  record : bool;
  cs_yields : int;
  ncs_yields : int;
  max_steps : int;
}

let default_cfg =
  {
    n = 8;
    model = Memory.CC;
    requests = 8;
    seed = 1;
    scenario = No_failures;
    record = false;
    cs_yields = 2;
    ncs_yields = 0;
    max_steps = 5_000_000;
  }

let run (spec : Spec.t) cfg =
  Harness.run_lock ~record:cfg.record ~max_steps:cfg.max_steps ~cs:(Harness.yields cfg.cs_yields)
    ~ncs:(Harness.yields cfg.ncs_yields) ~n:cfg.n ~model:cfg.model
    ~sched:(Sched.random ~seed:cfg.seed)
    ~crash:(Rme_check.Chaos.plan (Rme_check.Chaos.Oblivious (Some cfg.scenario)) ~seed:cfg.seed)
    ~abort:(Rme_check.Chaos.abort_plan (Rme_check.Chaos.Oblivious (Some cfg.scenario)) ~seed:cfg.seed)
    ~requests:cfg.requests ~make:spec.Spec.make ()

let run_key key cfg = run (Spec.find_exn key) cfg

type measurement = {
  max_rmr : float;
  avg_rmr : float;
  avg_super_rmr : float;
  crashes : int;
  aborts : int;
  max_level : int;
  satisfied : bool;
  me_ok : bool;
  throughput : float;  (* satisfied requests per 1000 engine steps *)
}

let measure (res : Engine.result) =
  {
    max_rmr = float_of_int (Engine.max_rmr res);
    avg_rmr = Engine.avg_rmr res;
    avg_super_rmr = Engine.avg_rmr_super res;
    crashes = res.Engine.total_crashes;
    aborts =
      List.length
        (List.filter
           (fun (a : Engine.abort_stat) -> a.ab_result = Engine.Res_aborted)
           res.Engine.aborts);
    max_level = Array.fold_left (fun acc (p : Engine.proc_stats) -> max acc p.max_level) 0 res.Engine.procs;
    satisfied =
      (not res.Engine.deadlocked) && not res.Engine.timed_out
      && Array.for_all (fun (p : Engine.proc_stats) -> p.completed > 0) res.Engine.procs;
    me_ok = res.Engine.cs_max <= 1;
    throughput =
      1000.0 *. float_of_int (Engine.total_completed res) /. float_of_int (max 1 res.Engine.steps);
  }

let sweep spec ~over xs = List.map (fun x -> (x, measure (run spec (over x)))) xs
