(* Randomized soak campaign: one Rme_check.Chaos campaign over every
   crash-safe lock in the registry, judged by the full checker battery.
   Each seed draws its own configuration and failure scenario (the
   Oblivious adversary) unless --adversary names adaptive ones; every
   violation is replay-confirmed and shrunk.  Exit 0 iff none was found.

     dune exec bin/soak.exe -- --lock ba-jjj --runs 1000 --seed 0
     dune exec bin/soak.exe -- --replay 1234 --lock wr     # full report
     dune exec bin/soak.exe -- --adversary all --runs 50   # adaptive adversaries *)

open Cmdliner
open Rme_sim
module Chaos = Rme_check.Chaos

(* "n=3 req=3 CC fas-storm(F=1,rate=0.4)": what a run went under. *)
let pp_setup ppf ((cfg : Chaos.cfg), adversary) =
  Fmt.pf ppf "n=%d req=%d %a %a" cfg.n cfg.requests Memory.pp_model cfg.model Chaos.pp_adversary
    adversary

let pp_abort_stat ppf (a : Engine.abort_stat) =
  Fmt.pf ppf "p%d signal@%d op#%d %s own=%d rmr=%d -> %a" a.ab_pid a.ab_signal_step a.ab_op_index
    (if a.ab_resolved_step < 0 then "pending" else Printf.sprintf "resolved@%d" a.ab_resolved_step)
    a.ab_own_steps a.ab_rmr Engine.pp_abort_result a.ab_result

(* --replay: one seed's full report per selected case and adversary; the
   abort decisions list every delivered signal and how it resolved.  A
   campaign run keeps no history, so the timeline is drawn from the
   history its replay from the logs records. *)
let replay cases adversaries seed =
  let report (case : Chaos.case) adversary =
    let r = Chaos.run_one Chaos.default_cfg ~make:case.case_make ~adversary ~seed in
    let problems = Chaos.battery case ~requests:r.cfg.requests r.res in
    let recorded, diverged =
      Chaos.replay r.cfg ~make:case.case_make ~fired:r.fired ~ab_fired:r.ab_fired
        ~decisions:r.decisions ()
    in
    if diverged then Fmt.pr "(the replay diverged: the timeline is not this run's)@.";
    Fmt.pr "=== %s seed=%d: %a@.%a@.%a@." case.case_name seed pp_setup (r.cfg, r.adversary)
      Engine.pp_summary r.res (Rme_check.Timeline.pp ?width:None) recorded;
    if r.fired <> [] then Fmt.pr "fired: %a@." Fmt.(list ~sep:(any " ") Chaos.pp_fired) r.fired;
    if r.res.aborts <> [] then Fmt.pr "abort decisions (%d):@." (List.length r.res.aborts);
    List.iter (Fmt.pr "  %a@." pp_abort_stat) r.res.aborts;
    if problems = [] then Fmt.pr "battery clean@.";
    List.iter (Fmt.pr "VIOLATION: %s@.") problems;
    problems = []
  in
  let clean = List.concat_map (fun case -> List.map (report case) adversaries) cases in
  if List.for_all Fun.id clean then 0 else 1

(* The oblivious soak prints per-lock progress and its totals, the
   adaptive adversaries a campaign summary; every violation is followed by
   the command that replays it. *)
let campaign ~oblivious ~scenario cases adversaries runs seed_base verbose jobs =
  let o = Chaos.campaign ~jobs ~adversaries ~runs ~seed_base cases in
  (* -v: what each run went under ([Chaos.setup]) and whether it failed. *)
  let progress (case : Chaos.case) adversary =
    if verbose then
      for seed = seed_base to seed_base + runs - 1 do
        let setup = Chaos.setup Chaos.default_cfg adversary ~seed in
        let failed (v : Chaos.violation) =
          v.v_case = case.case_name && v.v_seed = seed && v.v_adversary = snd setup
        in
        Fmt.pr "%-16s seed=%-6d %a %s@." case.case_name seed pp_setup setup
          (if List.exists failed o.violations then "FAIL" else "ok")
      done;
    if oblivious then Fmt.pr "%-16s %d runs done@." case.case_name runs
  in
  List.iter (fun case -> List.iter (progress case) adversaries) cases;
  let violations = List.length o.violations in
  if not oblivious then
    Fmt.pr "chaos campaign: %d runs, %d crashes + %d aborts injected, %d violations@." o.runs
      o.crashes o.aborts violations
  else if violations = 0 then
    Fmt.pr "@.soak clean: %d runs, 0 violations (engine: %d runs, %d steps)@." o.runs o.runs o.steps
  else
    Fmt.pr "@.%d VIOLATIONS in %d runs (engine: %d runs, %d steps):@." violations o.runs o.runs
      o.steps;
  List.iter
    (fun (v : Chaos.violation) ->
      Fmt.pr "%a@." Chaos.pp_violation v;
      Fmt.pr "  (replay: soak %s--replay %d --lock %s%s)@."
        (if oblivious then "" else "--adversary " ^ Chaos.adversary_name v.v_adversary ^ " ")
        v.v_seed v.v_case
        (match scenario with Some s -> " --scenario " ^ Filename.quote s | None -> ""))
    o.violations;
  if violations = 0 then 0 else 1

let () =
  let lock =
    Arg.(
      value & opt (some Cli_exit.lock) None & info [ "l"; "lock" ] ~docv:"LOCK" ~doc:"Only this lock.")
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
      & opt (some (pair ~sep:':' Cli_exit.lock int)) None
      & info [ "repro" ] ~docv:"LOCK:SEED"
          ~doc:"Shorthand for --replay SEED --lock LOCK (kept for muscle memory).")
  in
  let replay_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "replay" ] ~docv:"SEED"
          ~doc:
            "Re-run seed $(docv) for each selected lock (and --adversary) and print the engine \
             summary, history timeline, fired crashes and full battery report.")
  in
  let adversary_arg =
    let parse s =
      if String.lowercase_ascii s = "all" then Ok Chaos.standard_adversaries
      else Result.map (fun a -> [ a ]) (Chaos.adversary_of_string s)
    in
    Arg.(
      value
      & opt (some (conv' (parse, Fmt.(list ~sep:comma Chaos.pp_adversary)))) None
      & info [ "adversary" ] ~docv:"ADV"
          ~doc:
            "Run the adaptive adversaries instead of the oblivious soak: \
             holder|window|offender|storm|sys-storm|impatient-storm|all.")
  in
  let scenario_arg =
    (* The flag's own text is kept for replay lines: printed, a scenario's
       floats are rounded. *)
    let parse s = Result.map (fun sc -> (s, sc)) (Arg.conv_parser Cli_exit.scenario s) in
    Arg.(
      value
      & opt (some (conv (parse, fun ppf (s, _) -> Fmt.string ppf s))) None
      & info [ "scenario" ] ~docv:"SCENARIO"
          ~doc:
            "Force every soak/replay run to this failure scenario instead of the seed-derived \
             one (not with --adversary).  Grammar: none | fas:F | storm:K | batch:SIZE | \
             impatient:T[:RETRIES[:BACKOFF]].")
  in
  let main lock scenario runs seed verbose jobs repro_case replay_seed adversaries =
    let oblivious = adversaries = None in
    let lock, replay_seed =
      match repro_case with Some (key, s) -> (Some key, Some s) | None -> (lock, replay_seed)
    in
    let specs =
      match lock with
      | Some spec -> [ spec ]
      | None -> List.filter (fun (s : Rme.Spec.t) -> s.crash_safe) Rme.Spec.all
    in
    (* Oblivious runs draw n and the model: no CC ff bound at one n applies. *)
    let n = if oblivious then None else Some Chaos.default_cfg.n in
    let cases = List.map (Rme.Spec.chaos_case ?n) specs in
    let adversaries =
      Option.value adversaries ~default:[ Chaos.Oblivious (Option.map snd scenario) ]
    in
    match (oblivious, scenario, replay_seed) with
    | false, Some _, _ ->
        `Error (true, "--scenario applies to the oblivious soak, not to --adversary")
    | _, _, Some s -> `Ok (replay cases adversaries s)
    | _ ->
        let scenario = Option.map fst scenario in
        `Ok (campaign ~oblivious ~scenario cases adversaries runs seed verbose jobs)
  in
  let cmd =
    Cmd.v
      (Cmd.info "soak" ~exits:(Cli_exit.exits ()) ~doc:"Randomized soak/fuzz campaign over the lock registry.")
      Term.(
        ret
          (const main $ lock $ scenario_arg $ runs $ seed $ verbose $ jobs $ repro_arg $ replay_arg
         $ adversary_arg))
  in
  exit (Cli_exit.status (Cmd.eval' cmd))
