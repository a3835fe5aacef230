(* Cross-lock, cross-crash-model conformance shootout: sweep crash plans
   over every lock in the registry (plus the splitter try-lock and the
   dual-port arbitrator) and render one lock × property matrix per crash
   model.  The registry spans four papers — Golab–Ramaraju/Dhoked–Mittal
   adaptive RME (this repo's source), the Jayanti–Jayanti–Joshi
   sublogarithmic tree, the JJJ system-crash ticket lock (arXiv
   2302.00748) and the Dhoked–Mittal fair transformation (arXiv
   2110.08308) — so the matrix is a shootout of the papers' locks against
   both failure models.

     dune exec bin/conformance.exe -- --n 2 --requests 1 --site-cap 48
     dune exec bin/conformance.exe -- --lock wr --budget 1 --max-runs 4000
     dune exec bin/conformance.exe -- --model system --lock jjj-sys,dm-jjj

   --model per-process sweeps the paper's individual-crash model (§2.2),
   --model system the JJJ system-wide model (every continuation erased at
   one step), --model both (default) renders both matrices.

   Exit status 0 iff no unexpected violation (FAIL) was found in any
   swept model; expected violations — WR-Lock's FAS-gap ME overlap, a
   non-recoverable lock's post-crash deadlock — do not fail the run. *)

open Cmdliner
open Rme_sim
module Sweep = Rme_check.Sweep

(* The splitter is a try-lock, not a Lock.t: drive it with a one-shot body
   (winner takes the CS, losers complete without it).  A busy-retry wrapper
   would spin without parking and read as a livelock to the explorer's
   default schedule, so the one-shot shape is the honest scenario. *)
let splitter_subject ~n =
  let scenario =
    Sweep.Scenario
      {
        setup = (fun ctx -> Rme_locks.Splitter.create ctx);
        body =
          (fun sp ~pid ->
            Api.note (Event.Seg Event.Req_begin);
            if Rme_locks.Splitter.try_fast sp ~pid then begin
              Api.note (Event.Seg Event.Cs_begin);
              Api.yield ();
              Api.note (Event.Seg Event.Cs_end);
              Rme_locks.Splitter.release sp ~pid
            end;
            Api.note (Event.Seg Event.Req_done));
      }
  in
  {
    Sweep.subject_name = "splitter";
    subject_n = n;
    subject_scenario = scenario;
    subject_props = [ Sweep.me_prop () ];
  }

(* The arbitrator is a dual-port lock; its ordinary-lock view is defined for
   exactly two fixed processes, so the subject pins n = 2. *)
let arbitrator_subject ~requests ~cs_yields =
  Sweep.standard_subject ~name:"arbitrator" ~n:2 ~requests ~cs_yields ~recoverability:`Strong
    (fun ctx -> Rme_locks.Arbitrator.as_two_process_lock (Rme_locks.Arbitrator.create ctx) ~n:2)

let subjects ~n ~requests ~cs_yields ~aborts ~only =
  let wanted name = match only with None -> true | Some keys -> List.mem name keys in
  let registry =
    List.filter_map
      (fun (s : Rme.Spec.t) ->
        if not (wanted s.key) then None
        else
          (* In abort mode every lock gets a well-defined abort port:
             native for the abortable variants, the Not_supported adapter
             for the legacy locks — so injected signals probe the whole
             registry without crashing any subject. *)
          let make =
            if aborts && not s.abortable then fun ctx -> Rme_locks.Lock.abortable (s.make ctx)
            else s.make
          in
          Some
            ( Sweep.standard_subject ~name:s.key ~n ~requests ~cs_yields
                ~abortable:s.abortable ~recoverability:s.expectation.Rme.Spec.recoverability
                make,
              s.crash_safe ))
      Rme.Spec.all
  in
  let extras =
    (if wanted "splitter" then [ (splitter_subject ~n, true) ] else [])
    @ if wanted "arbitrator" then [ (arbitrator_subject ~requests ~cs_yields, true) ] else []
  in
  registry @ extras

(* One matrix under one crash model.  Locks marked crash_safe = false make
   no guarantee whatsoever under crashes (of either model), so crash plans
   are not meaningful for them: sweep them crash-free only (budget 0) and
   keep the crash budget for the rest.  Rows are re-merged into registry
   order afterwards. *)
let matrix_rows cfg ~subjects =
  let order = List.mapi (fun i (s, _) -> (s.Sweep.subject_name, i)) subjects in
  let safe = List.filter_map (fun (s, cs) -> if cs then Some s else None) subjects in
  let unsafe = List.filter_map (fun (s, cs) -> if cs then None else Some s) subjects in
  let rows =
    Sweep.matrix cfg ~model:Memory.CC ~subjects:safe
    @ Sweep.matrix { cfg with Sweep.budget = 0 } ~model:Memory.CC ~subjects:unsafe
  in
  List.sort
    (fun a b ->
      compare (List.assoc a.Sweep.row_subject order) (List.assoc b.Sweep.row_subject order))
    rows

let conformance n requests cs_yields budget site_cap plan_cap max_runs max_steps jobs model
    aborts only out =
  let cfg =
    {
      Sweep.default_cfg with
      Sweep.max_runs_per_plan = max_runs;
      max_steps;
      budget;
      site_cap;
      plan_cap;
      abort_timeout = aborts;
      jobs;
    }
  in
  let models =
    match model with
    | `Per_process -> [ Sweep.Per_process ]
    | `System -> [ Sweep.System_wide ]
    | `Both -> [ Sweep.Per_process; Sweep.System_wide ]
  in
  let subjects = subjects ~n ~requests ~cs_yields ~aborts:(aborts <> None) ~only in
  if subjects = [] then begin
    Fmt.epr "no such lock; known: %s, splitter, arbitrator@."
      (String.concat ", " (Rme.Spec.keys ()));
    2
  end
  else begin
    let sections =
      List.map
        (fun crash_model ->
          let rows = matrix_rows { cfg with Sweep.crash_model } ~subjects in
          let header, cells = Sweep.matrix_cells rows in
          let details = Sweep.matrix_details rows in
          let rendered =
            Printf.sprintf "crash model: %s\n" (Sweep.crash_model_string crash_model)
            ^ Rme.Report.table_to_string ~header ~rows:cells
            ^ String.concat "" (List.map (fun l -> l ^ "\n") details)
          in
          (crash_model, rows, rendered))
        models
    in
    let rendered = String.concat "\n" (List.map (fun (_, _, r) -> r) sections) in
    print_string rendered;
    (match out with
    | None -> ()
    | Some path ->
        let oc = open_out path in
        Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc rendered);
        Fmt.pr "matrix written to %s@." path);
    let failures =
      List.concat_map
        (fun (m, rows, _) ->
          List.map (fun (s, f) -> (m, s, f)) (Sweep.matrix_failures rows))
        sections
    in
    match failures with
    | [] ->
        Fmt.pr "@.conformance clean: %d locks x %d crash models, 0 unexpected violations@."
          (List.length subjects) (List.length models);
        0
    | failures ->
        Fmt.pr "@.%d unexpected violations:@." (List.length failures);
        List.iter
          (fun (m, subject, f) ->
            Fmt.pr "  [%s] %s: %a@." (Sweep.crash_model_string m) subject Sweep.pp_finding f)
          failures;
        1
  end

let () =
  let n =
    Arg.(value & opt Cli_exit.pos_int 2 & info [ "n" ] ~docv:"N" ~doc:"Processes per scenario.")
  in
  let requests =
    Arg.(
      value & opt Cli_exit.pos_int 1 & info [ "requests" ] ~docv:"R" ~doc:"Requests per process.")
  in
  let cs_yields =
    Arg.(
      value & opt int 3
      & info [ "cs-yields" ] ~docv:"K" ~doc:"Scheduling points inside each critical section.")
  in
  let budget =
    Arg.(
      value & opt int 1
      & info [ "budget" ] ~docv:"F"
          ~doc:"Crash budget: 0 = crash-free only, 1 = single-site plans, 2 = add pairs.")
  in
  let site_cap =
    Arg.(
      value & opt Cli_exit.pos_int 64
      & info [ "site-cap" ] ~docv:"S" ~doc:"Max deduplicated crash sites.")
  in
  let plan_cap =
    Arg.(
      value & opt Cli_exit.pos_int 160 & info [ "plan-cap" ] ~docv:"P" ~doc:"Max crash plans swept.")
  in
  let max_runs =
    Arg.(
      value & opt Cli_exit.pos_int 150
      & info [ "max-runs" ] ~docv:"N" ~doc:"Explorer budget (schedules) per crash plan.")
  in
  let max_steps =
    Arg.(
      value & opt Cli_exit.pos_int 6_000
      & info [ "max-steps" ] ~docv:"N" ~doc:"Engine step bound per run.")
  in
  let jobs =
    Arg.(
      value & opt Cli_exit.pos_int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Spread the crash plans over $(docv) OCaml domains (1 = sequential); each plan is \
             one sequential search, so the matrix is the same for every $(docv).")
  in
  let model =
    Arg.(
      value
      & opt (enum [ ("per-process", `Per_process); ("system", `System); ("both", `Both) ]) `Both
      & info [ "model" ] ~docv:"MODEL"
          ~doc:
            "Crash model(s) to sweep: $(b,per-process) (the paper's individual crashes), \
             $(b,system) (system-wide crashes, every continuation erased at one step), or \
             $(b,both).")
  in
  let aborts =
    Arg.(
      value
      & opt (some Cli_exit.pos_int) None
      & info [ "aborts" ] ~docv:"T"
          ~doc:
            "Abort-injection mode: layer an impatient-waiter abort plan (timeout $(docv) \
             steps) over every crash plan, give legacy locks the Not_supported abort \
             adapter, and check the abort battery on the abortable locks.")
  in
  let only =
    Arg.(
      value
      & opt (some (list string)) None
      & info [ "l"; "lock" ] ~docv:"LOCKS" ~doc:"Comma-separated subset of locks to sweep.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"PATH" ~doc:"Also write the rendered matrix to $(docv).")
  in
  let cmd =
    Cmd.v
      (Cmd.info "conformance" ~exits:(Cli_exit.exits ())
         ~doc:"Crash-site sweep conformance matrix over the lock registry.")
      Term.(
        const conformance $ n $ requests $ cs_yields $ budget $ site_cap $ plan_cap $ max_runs
        $ max_steps $ jobs $ model $ aborts $ only $ out)
  in
  exit (Cli_exit.status (Cmd.eval' cmd))
