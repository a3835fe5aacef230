(* Randomized soak campaign: hammer every crash-safe lock in the registry
   with random schedules, crash storms and memory models, and run the full
   checker battery over the recorded histories.  Exit status 0 iff no
   violation was found.

     dune exec bin/soak.exe -- --runs 200 --seed 0
     dune exec bin/soak.exe -- --lock ba-jjj --runs 1000
     dune exec bin/soak.exe -- --replay 1234 --lock wr     # full report
     dune exec bin/soak.exe -- --adversary all --runs 50   # chaos campaign *)

open Cmdliner
open Rme_sim
module Chaos = Rme_check.Chaos

type failure = { lock : string; seed : int; what : string }

(* The whole run configuration is a pure function of the seed, so any
   soak case replays exactly from its seed alone. *)
let derive_cfg ~seed =
  let rng = Random.State.make [| seed; 0x50a6 |] in
  let n = 2 + Random.State.int rng 7 in
  let requests = 2 + Random.State.int rng 5 in
  let model = if Random.State.bool rng then Memory.CC else Memory.DSM in
  let scenario =
    match Random.State.int rng 5 with
    | 0 -> Rme.Workload.No_failures
    | 1 -> Rme.Workload.Fas_storm { f = 1 + Random.State.int rng 8; rate = 0.4 }
    | 2 -> Rme.Workload.Random_storm { crashes = 1 + Random.State.int rng n; rate = 0.008 }
    | 3 ->
        (* Batch phase and cadence vary per seed so the batches land in
           different phases of the run (startup, steady state, drain). *)
        Rme.Workload.Batch
          {
            size = 1 + Random.State.int rng n;
            at_step = 50 + Random.State.int rng 1950;
            repeat = 1 + Random.State.int rng 3;
            gap = 200 + Random.State.int rng 1800;
          }
    | _ ->
        Rme.Workload.Impatient
          {
            timeout_steps = 20 + Random.State.int rng 180;
            retries = 1 + Random.State.int rng 4;
            backoff = 1.0 +. Random.State.float rng 1.5;
          }
  in
  {
    Rme.Workload.n;
    requests;
    model;
    seed;
    scenario;
    record = true;
    cs_yields = Random.State.int rng 6;
    ncs_yields = Random.State.int rng 3;
    max_steps = 3_000_000;
  }

let weak_lock_ids (spec : Rme.Spec.t) =
  (* By construction every registered weakly recoverable lock registers
     itself first, so its lock id is 0. *)
  if spec.Rme.Spec.expectation.Rme.Spec.recoverability = `Weak then [ 0 ] else []

let describe cfg =
  Fmt.str "n=%d req=%d %a %a" cfg.Rme.Workload.n cfg.Rme.Workload.requests Memory.pp_model
    cfg.Rme.Workload.model Rme.Workload.pp_scenario cfg.Rme.Workload.scenario

let abort_expect (spec : Rme.Spec.t) =
  if spec.Rme.Spec.abortable then Some Rme.Check.Props.default_abort_expect else None

(* One soak case, run and judged: its configuration, the engine result and
   the battery's violations.  Both the campaign and --replay go through
   here. *)
let run_one ~spec ~scenario ~seed =
  let cfg = derive_cfg ~seed in
  let cfg = match scenario with Some s -> { cfg with Rme.Workload.scenario = s } | None -> cfg in
  let res = Rme.Workload.run spec cfg in
  let problems =
    Rme.Check.Props.check_battery
      ?abort:(abort_expect spec)
      res ~requests:cfg.Rme.Workload.requests ~weak_lock_ids:(weak_lock_ids spec)
  in
  (cfg, res, problems)

let selected_specs lock =
  match lock with
  | Some key -> [ Rme.Spec.find_exn key ]
  | None -> List.filter (fun (s : Rme.Spec.t) -> s.crash_safe) Rme.Spec.all

(* --replay: deterministically re-run one recorded case and print the full
   battery report, engine summary and history timeline. *)
let pp_abort_stat ppf (a : Engine.abort_stat) =
  Fmt.pf ppf "p%d signal@%d op#%d %s own=%d rmr=%d -> %a" a.Engine.ab_pid
    a.Engine.ab_signal_step a.Engine.ab_op_index
    (if a.Engine.ab_resolved_step < 0 then "pending"
     else Printf.sprintf "resolved@%d" a.Engine.ab_resolved_step)
    a.Engine.ab_own_steps a.Engine.ab_rmr Engine.pp_abort_result a.Engine.ab_result

let replay lock scenario seed =
  let failed = ref false in
  List.iter
    (fun (spec : Rme.Spec.t) ->
      let cfg, res, problems = run_one ~spec ~scenario ~seed in
      Fmt.pr "=== %s seed=%d: %s@.%a@.%a@." spec.Rme.Spec.key seed (describe cfg)
        Engine.pp_summary res
        (Rme_check.Timeline.pp ?width:None)
        res;
      (* The abort decision vector of the run: every delivered signal and
         how it resolved, in delivery order. *)
      (match res.Engine.aborts with
      | [] -> ()
      | aborts ->
          Fmt.pr "abort decisions (%d):@." (List.length aborts);
          List.iter (fun a -> Fmt.pr "  %a@." pp_abort_stat a) aborts);
      if problems = [] then Fmt.pr "battery clean@."
      else begin
        failed := true;
        List.iter (Fmt.pr "VIOLATION: %s@.") problems
      end)
    (selected_specs lock);
  if !failed then 1 else 0

let soak lock scenario runs seed_base verbose jobs =
  let specs = selected_specs lock in
  (* One task per (lock, seed); sharded across domains with --jobs > 1.
     run_one is domain-safe (every run builds its own engine, memory and
     seeded RNGs), and results are reported in task order, so the output
     and the exit status are independent of the domain count. *)
  let tasks =
    Array.of_list
      (List.concat_map
         (fun (spec : Rme.Spec.t) -> List.init runs (fun i -> (spec, seed_base + i)))
         specs)
  in
  let results =
    Rme_check.Pool.map ~domains:jobs ~tasks (fun (spec, seed) ->
        let cfg, res, problems = run_one ~spec ~scenario ~seed in
        (problems, describe cfg, res.Engine.steps))
  in
  let failures = ref [] in
  let engine_runs = ref 0 in
  let engine_steps = ref 0 in
  Array.iteri
    (fun i (problems, descr, steps) ->
      let spec, seed = tasks.(i) in
      incr engine_runs;
      engine_steps := !engine_steps + steps;
      if verbose then
        Fmt.pr "%-16s seed=%-6d %s %s@." spec.Rme.Spec.key seed descr
          (if problems = [] then "ok" else "FAIL");
      List.iter
        (fun what -> failures := { lock = spec.Rme.Spec.key; seed; what } :: !failures)
        problems;
      if seed = seed_base + runs - 1 then Fmt.pr "%-16s %d runs done@." spec.Rme.Spec.key runs)
    results;
  let failures = List.rev !failures in
  let total = Array.length tasks in
  if failures = [] then begin
    Fmt.pr "@.soak clean: %d runs, 0 violations (engine: %d runs, %d steps)@." total !engine_runs
      !engine_steps;
    0
  end
  else begin
    Fmt.pr "@.%d VIOLATIONS in %d runs (engine: %d runs, %d steps):@." (List.length failures)
      total !engine_runs !engine_steps;
    List.iter
      (fun f ->
        Fmt.pr "  %s seed=%d: %s@.    (replay: soak --replay %d --lock %s)@." f.lock f.seed
          f.what f.seed f.lock)
      failures;
    1
  end

(* --adversary: seeded chaos campaign with the adaptive adversaries; on a
   violation the campaign replays it against a fixed at-op crash plan and
   shrinks the schedule witness (see Rme_check.Chaos). *)
let adversarial lock adv runs seed_base jobs =
  let adversaries =
    if String.lowercase_ascii adv = "all" then Chaos.standard_adversaries
    else
      match Chaos.adversary_of_string adv with
      | Ok a -> [ a ]
      | Error msg ->
          Fmt.epr "soak: %s@." msg;
          exit 2
  in
  let cfg = Chaos.default_cfg in
  let cases = List.map (Rme.Spec.chaos_case ~n:cfg.Chaos.n) (selected_specs lock) in
  let outcome =
    Chaos.campaign ~cfg ~jobs:(max 1 jobs) ~adversaries ~runs ~seed_base cases
  in
  Fmt.pr "chaos campaign: %d runs, %d crashes + %d aborts injected, %d violations@."
    outcome.Chaos.runs outcome.Chaos.crashes outcome.Chaos.aborts
    (List.length outcome.Chaos.violations);
  List.iter (fun v -> Fmt.pr "%a@." Chaos.pp_violation v) outcome.Chaos.violations;
  if outcome.Chaos.violations = [] then 0 else 1

let () =
  let lock =
    Arg.(value & opt (some string) None & info [ "l"; "lock" ] ~docv:"LOCK" ~doc:"Only this lock.")
  in
  let runs =
    Arg.(value & opt Cli_exit.pos_int 50 & info [ "runs" ] ~docv:"N" ~doc:"Runs per lock.")
  in
  let seed = Arg.(value & opt int 0 & info [ "seed" ] ~docv:"S" ~doc:"Base seed.") in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Per-run output.") in
  let jobs =
    Arg.(
      value & opt Cli_exit.pos_int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"Shard the campaign over $(docv) OCaml domains (1 = sequential).")
  in
  let repro_arg =
    Arg.(
      value
      & opt (some (pair ~sep:':' string int)) None
      & info [ "repro" ] ~docv:"LOCK:SEED"
          ~doc:"Shorthand for --replay SEED --lock LOCK (kept for muscle memory).")
  in
  let replay_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "replay" ] ~docv:"SEED"
          ~doc:
            "Deterministically re-run the soak case of $(docv) (restrict with --lock) and \
             print the full battery report, engine summary and history timeline.")
  in
  let adversary_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "adversary" ] ~docv:"ADV"
          ~doc:
            "Run an adaptive chaos campaign instead of the oblivious soak: \
             holder|window|offender|storm|sys-storm|impatient-storm|all.  Violations are replayed \
             against a deterministic at-op crash plan and shrunk to a minimal schedule \
             witness.")
  in
  let scenario_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "scenario" ] ~docv:"SCENARIO"
          ~doc:
            "Force every soak/replay run to this failure scenario instead of the \
             seed-derived one.  Grammar: none | fas:F | storm:K | batch:SIZE | \
             impatient:T[:RETRIES[:BACKOFF]].")
  in
  let main lock scenario_str runs seed verbose jobs repro_case replay_seed adversary =
    let scenario =
      match scenario_str with
      | None -> None
      | Some str -> (
          match Rme.Workload.scenario_of_string str with
          | Some sc -> Some sc
          | None ->
              Fmt.epr "soak: invalid scenario %S (valid: %s)@." str
                Rme.Workload.scenario_grammar;
              exit 2)
    in
    match (repro_case, replay_seed, adversary) with
    | Some (key, s), _, _ -> replay (Some key) scenario s
    | None, Some s, _ -> replay lock scenario s
    | None, None, Some adv -> adversarial lock adv runs seed jobs
    | None, None, None -> soak lock scenario runs seed verbose jobs
  in
  let cmd =
    Cmd.v
      (Cmd.info "soak" ~exits:(Cli_exit.exits ()) ~doc:"Randomized soak/fuzz campaign over the lock registry.")
      Term.(
        const main $ lock $ scenario_arg $ runs $ seed $ verbose $ jobs $ repro_arg $ replay_arg
        $ adversary_arg)
  in
  exit (Cli_exit.status (Cmd.eval' cmd))
