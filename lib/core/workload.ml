open Rme_sim

type scenario =
  | No_failures
  | Fas_storm of { f : int; rate : float }
  | Random_storm of { crashes : int; rate : float }
  | Batch of { size : int; at_step : int; repeat : int; gap : int }
  | Impatient of { timeout_steps : int; retries : int; backoff : float }

let pp_scenario ppf = function
  | No_failures -> Fmt.string ppf "none"
  | Fas_storm { f; rate } -> Fmt.pf ppf "fas-storm(F=%d,rate=%g)" f rate
  | Random_storm { crashes; rate } -> Fmt.pf ppf "random-storm(%d,rate=%g)" crashes rate
  | Batch { size; at_step; repeat; gap } ->
      Fmt.pf ppf "batch(size=%d,at=%d,repeat=%d,gap=%d)" size at_step repeat gap
  | Impatient { timeout_steps; retries; backoff } ->
      Fmt.pf ppf "impatient(T=%d,retries=%d,backoff=%g)" timeout_steps retries backoff

(* The ranges the plan constructors accept, checked here so that bad input
   is a parse failure rather than an [Invalid_argument] from a plan. *)
let in_range = function
  | No_failures -> true
  | Fas_storm { f = k; rate } | Random_storm { crashes = k; rate } ->
      k >= 0 && rate >= 0.0 && rate <= 1.0
  | Batch { size; at_step; repeat; gap } -> size >= 0 && at_step >= 0 && repeat >= 0 && gap >= 0
  | Impatient { timeout_steps; retries; backoff } ->
      timeout_steps > 0 && retries >= 0 && backoff >= 1.0

(* Accepts both the compact command-line grammar ("fas:3", "impatient:40:3:2")
   and the exact {!pp_scenario} rendering, so a scenario printed in a log or
   a report line can be fed straight back in (the round-trip the tests pin). *)
let parse_scenario s =
  let scan fmt f = try Some (Scanf.sscanf s fmt f) with Scanf.Scan_failure _ | Failure _ | End_of_file -> None in
  let first_some l = List.fold_left (fun acc p -> match acc with Some _ -> acc | None -> p ()) None l in
  match String.split_on_char ':' s with
  | [ "none" ] -> Some No_failures
  | [ "fas"; f ] -> int_of_string_opt f |> Option.map (fun f -> Fas_storm { f; rate = 0.5 })
  | [ "storm"; k ] ->
      int_of_string_opt k |> Option.map (fun crashes -> Random_storm { crashes; rate = 0.01 })
  | [ "batch"; k ] ->
      int_of_string_opt k
      |> Option.map (fun size -> Batch { size; at_step = 200; repeat = 1; gap = 1000 })
  | [ "impatient"; t ] ->
      int_of_string_opt t
      |> Option.map (fun timeout_steps -> Impatient { timeout_steps; retries = 3; backoff = 2.0 })
  | [ "impatient"; t; r ] -> (
      match (int_of_string_opt t, int_of_string_opt r) with
      | Some timeout_steps, Some retries -> Some (Impatient { timeout_steps; retries; backoff = 2.0 })
      | _ -> None)
  | [ "impatient"; t; r; b ] -> (
      match (int_of_string_opt t, int_of_string_opt r, float_of_string_opt b) with
      | Some timeout_steps, Some retries, Some backoff ->
          Some (Impatient { timeout_steps; retries; backoff })
      | _ -> None)
  | _ ->
      first_some
        [
          (fun () ->
            scan "fas-storm(F=%d,rate=%f)%!" (fun f rate -> Fas_storm { f; rate }));
          (fun () ->
            scan "random-storm(%d,rate=%f)%!" (fun crashes rate -> Random_storm { crashes; rate }));
          (fun () ->
            scan "batch(size=%d,at=%d,repeat=%d,gap=%d)%!" (fun size at_step repeat gap ->
                Batch { size; at_step; repeat; gap }));
          (fun () ->
            scan "impatient(T=%d,retries=%d,backoff=%f)%!" (fun timeout_steps retries backoff ->
                Impatient { timeout_steps; retries; backoff }));
        ]

let scenario_of_string s = Option.bind (parse_scenario s) (fun sc -> if in_range sc then Some sc else None)

let scenario_grammar = "none | fas:F | storm:K | batch:SIZE | impatient:T[:RETRIES[:BACKOFF]]"

let crash_plan scenario ~seed =
  match scenario with
  | No_failures | Impatient _ -> Crash.none
  | Fas_storm { f; rate } -> Crash.fas_gap ~seed ~rate ~max_crashes:f ~cell_suffix:".tail" ()
  | Random_storm { crashes; rate } -> Crash.random ~seed ~rate ~max_crashes:crashes ()
  | Batch { size; at_step; repeat; gap } ->
      Crash.all
        (List.init repeat (fun r ->
             Crash.batch ~step:(at_step + (r * gap)) ~pids:(List.init size (fun i -> i))))

let abort_plan scenario =
  match scenario with
  | Impatient { timeout_steps; retries; backoff } -> Abort.impatient ~timeout_steps ~retries ~backoff ()
  | No_failures | Fas_storm _ | Random_storm _ | Batch _ -> Abort.none

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
  let cs ~pid:_ =
    for _ = 1 to cfg.cs_yields do
      Api.yield ()
    done
  in
  let ncs ~pid:_ =
    for _ = 1 to cfg.ncs_yields do
      Api.yield ()
    done
  in
  Harness.run_lock ~record:cfg.record ~max_steps:cfg.max_steps ~cs ~ncs ~n:cfg.n ~model:cfg.model
    ~sched:(Sched.random ~seed:cfg.seed)
    ~crash:(crash_plan cfg.scenario ~seed:(cfg.seed + 7919))
    ~abort:(abort_plan cfg.scenario) ~requests:cfg.requests ~make:spec.Spec.make ()

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
