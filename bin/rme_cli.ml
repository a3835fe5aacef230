(* Command-line driver: run any registered lock under a workload, list the
   registry, or print an event trace.  The bench harness (bench/main.exe)
   regenerates the paper's tables; this tool is for interactive poking. *)

open Cmdliner
open Rme_sim

let lock_arg =
  let doc =
    Printf.sprintf "Lock to drive; one of: %s." (String.concat ", " (Rme.Spec.keys ()))
  in
  Arg.(value & opt Cli_exit.lock Rme.Spec.headline & info [ "l"; "lock" ] ~docv:"LOCK" ~doc)

let n_arg =
  Arg.(value & opt Cli_exit.pos_int 8 & info [ "n" ] ~docv:"N" ~doc:"Number of processes.")

let requests_arg =
  Arg.(
    value & opt Cli_exit.pos_int 8 & info [ "r"; "requests" ] ~docv:"R" ~doc:"Requests per process.")

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Scheduler seed.")

let model_arg =
  let model_conv =
    Arg.conv
      ( (fun s ->
          match Memory.model_of_string s with
          | Some m -> Ok m
          | None -> Error (`Msg "expected cc or dsm")),
        Memory.pp_model )
  in
  Arg.(value & opt model_conv Memory.CC & info [ "m"; "model" ] ~docv:"MODEL" ~doc:"Memory model: cc or dsm.")

let scenario_arg =
  Arg.(
    value
    & opt Cli_exit.scenario Rme.Workload.No_failures
    & info [ "s"; "scenario" ] ~docv:"SCENARIO"
        ~doc:
          "Failure scenario: none, fas:F (F unsafe FAS-gap crashes), storm:K (K random \
           crashes), batch:SIZE, impatient:T[:RETRIES[:BACKOFF]] (abort every waiter after T \
           steps, RETRIES times, timeout scaled by BACKOFF after each abort).")

let events_arg =
  Arg.(value & flag & info [ "events" ] ~doc:"Print the recorded event history.")

let timeline_arg =
  Arg.(value & flag & info [ "timeline" ] ~doc:"Print an ASCII execution timeline.")

let run_cmd =
  let run spec n requests seed model scenario events timeline =
    let cfg =
      {
        Rme.Workload.default_cfg with
        n;
        requests;
        seed;
        model;
        scenario;
        record = events || timeline;
        cs_yields = 4;
      }
    in
    let res = Rme.Workload.run spec cfg in
    if events then List.iter (fun ev -> Fmt.pr "%a@." Event.pp ev) res.Engine.events;
    if timeline then Fmt.pr "%a@." (Rme_check.Timeline.pp ?width:None) res;
    Fmt.pr "%a@." Engine.pp_summary res;
    let m = Rme.Workload.measure res in
    Fmt.pr "max_rmr/passage=%.0f avg_rmr/passage=%.2f avg_rmr/super=%.2f max_level=%d@."
      m.Rme.Workload.max_rmr m.avg_rmr m.avg_super_rmr m.max_level;
    if not m.Rme.Workload.satisfied then exit 2
  in
  Cmd.v
    (Cmd.info "run"
       ~exits:(Cli_exit.exits ~doc:"on invalid input, or when a request goes unsatisfied." ())
       ~doc:"Run a lock under a workload and print statistics.")
    Term.(
      const run $ lock_arg $ n_arg $ requests_arg $ seed_arg $ model_arg $ scenario_arg
      $ events_arg $ timeline_arg)

let list_cmd =
  let list () =
    Rme.Report.table
      ~header:[ "key"; "recoverability"; "failure-free"; "F failures"; "unbounded"; "description" ]
      ~rows:
        (List.map
           (fun (s : Rme.Spec.t) ->
             [
               s.key;
               (match s.expectation.recoverability with
               | `None -> "none"
               | `Weak -> "weak"
               | `Strong -> "strong");
               s.expectation.failure_free;
               s.expectation.limited_failures;
               s.expectation.arbitrary_failures;
               s.descr;
             ])
           Rme.Spec.all)
  in
  Cmd.v
    (Cmd.info "list" ~exits:(Cli_exit.exits ()) ~doc:"List the lock registry.")
    Term.(const list $ const ())

let check_cmd =
  let check spec n requests seed model scenario =
    let cfg =
      {
        Rme.Workload.default_cfg with
        n;
        requests;
        seed;
        model;
        scenario;
        record = true;
        cs_yields = 4;
      }
    in
    let res = Rme.Workload.run spec cfg in
    let report name = function
      | None -> Fmt.pr "%-22s ok@." name
      | Some msg ->
          Fmt.pr "%-22s VIOLATION: %s@." name msg;
          exit 2
    in
    report "mutual-exclusion" (Rme.Check.Props.mutual_exclusion res);
    report "starvation-freedom" (Rme.Check.Props.starvation_freedom res ~requests)
  in
  Cmd.v
    (Cmd.info "check"
       ~exits:(Cli_exit.exits ~doc:"on invalid input, or when a property is violated." ())
       ~doc:"Run a lock and check ME + SF on the recorded history.")
    Term.(const check $ lock_arg $ n_arg $ requests_arg $ seed_arg $ model_arg $ scenario_arg)

let sweep_cmd =
  let over_arg =
    Arg.(
      value
      & opt (enum [ ("n", `N); ("f", `F) ]) `F
      & info [ "over" ] ~docv:"AXIS" ~doc:"Sweep axis: n (processes) or f (unsafe failures).")
  in
  let values_arg =
    Arg.(
      value
      & opt (list int) [ 1; 2; 4; 8; 16; 32; 64 ]
      & info [ "values" ] ~docv:"V1,V2,..."
          ~doc:"Axis values: process counts (at least 1) or failure counts (at least 0).")
  in
  let csv_arg =
    Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc:"Also write a CSV file.")
  in
  let svg_arg =
    Arg.(value & opt (some string) None & info [ "svg" ] ~docv:"FILE" ~doc:"Also write an SVG chart.")
  in
  let sweep_values (spec : Rme.Spec.t) n requests seed model over values csv svg =
    let lock = spec.key in
    let cfg_of v =
      let base =
        { Rme.Workload.default_cfg with n; requests; seed; model; cs_yields = 6 }
      in
      match over with
      | `N -> { base with Rme.Workload.n = v }
      | `F ->
          {
            base with
            Rme.Workload.scenario =
              (if v = 0 then Rme.Workload.No_failures
               else Rme.Workload.Fas_storm { f = v; rate = 0.4 });
          }
    in
    let results = Rme.Workload.sweep spec ~over:cfg_of values in
    let points =
      List.map
        (fun (v, m) -> (float_of_int v, m.Rme.Workload.max_rmr))
        results
    in
    Rme.Report.series
      ~title:(Printf.sprintf "%s: worst passage RMRs" lock)
      ~xlabel:(match over with `N -> "n" | `F -> "F")
      ~ylabel:"max RMR" points;
    Fmt.pr "@.fitted growth exponent: %.2f (%a)@." (Rme.Report.fit_exponent points)
      Rme.Report.pp_growth
      (Rme.Report.classify points);
    (match csv with
    | None -> ()
    | Some path ->
        Rme.Report.write_csv ~path
          ~header:[ (match over with `N -> "n" | `F -> "f"); "max_rmr"; "avg_rmr"; "max_level" ]
          ~rows:
            (List.map
               (fun (v, (m : Rme.Workload.measurement)) ->
                 [
                   string_of_int v;
                   Printf.sprintf "%.1f" m.max_rmr;
                   Printf.sprintf "%.2f" m.avg_rmr;
                   string_of_int m.max_level;
                 ])
               results);
        Fmt.pr "(csv: %s)@." path);
    match svg with
    | None -> ()
    | Some path ->
        Rme.Svg_chart.write ~path ~log_x:true
          ~title:(Printf.sprintf "%s: worst passage RMRs" lock)
          ~xlabel:(match over with `N -> "n" | `F -> "F")
          ~ylabel:"max RMR"
          [ { Rme.Svg_chart.label = lock; points } ];
        Fmt.pr "(svg: %s)@." path
  in
  (* Each axis value gets the check its own flag gets: a process count must
     be positive like [-n], a failure count non-negative like [--scenario
     fas:F] (0 means failure-free). *)
  let invalid_value over v = match over with `N -> v < 1 | `F -> v < 0 in
  let sweep spec n requests seed model over values csv svg =
    match List.find_opt (invalid_value over) values with
    | Some v ->
        `Error
          ( true,
            Printf.sprintf "--values: %d is not a %s" v
              (match over with
              | `N -> "positive integer (a process count for --over n)"
              | `F -> "non-negative integer (a failure count for --over f)") )
    | None -> `Ok (sweep_values spec n requests seed model over values csv svg)
  in
  Cmd.v
    (Cmd.info "sweep" ~exits:(Cli_exit.exits ())
       ~doc:"Sweep a parameter and print the RMR growth curve.")
    Term.(
      ret
        (const sweep $ lock_arg $ n_arg $ requests_arg $ seed_arg $ model_arg $ over_arg
       $ values_arg $ csv_arg $ svg_arg))

let () =
  let info =
    Cmd.info "rme" ~exits:(Cli_exit.exits ()) ~version:Rme.version
      ~doc:"Adaptive recoverable mutual exclusion (PODC 2020) reproduction."
  in
  exit (Cli_exit.status (Cmd.eval (Cmd.group info [ run_cmd; list_cmd; check_cmd; sweep_cmd ])))
