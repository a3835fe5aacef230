(* Cmdliner exits 124 on a command-line parse error.  These tools promise
   status 2 for every invalid input (docs/USAGE.md), the same status an
   invalid --scenario gets, so [status] remaps the parse-error code and
   [exits] documents the result in the man pages. *)

open Cmdliner

let status code = if code = Cmd.Exit.cli_error then 2 else code

let exits ?(doc = "on invalid input, such as a command-line parse error.") () =
  Cmd.Exit.info 2 ~doc
  :: List.filter (fun i -> Cmd.Exit.info_code i <> Cmd.Exit.cli_error) Cmd.Exit.defaults

(* A failure scenario, in the grammar of [Chaos.scenario_of_string]. *)
let scenario =
  let open Rme.Check.Chaos in
  let parse s =
    Option.to_result (scenario_of_string s)
      ~none:(Printf.sprintf "invalid scenario %S (valid: %s)" s scenario_grammar)
  in
  Arg.conv' (parse, pp_scenario)

(* A count that must be at least 1 (processes, runs, a budget).  Zero or a
   negative value is a parse error, so it exits 2 with usage like any other
   bad input instead of failing deep inside the library or passing
   vacuously. *)
let pos_int =
  let parse s =
    match int_of_string_opt s with
    | Some k when k >= 1 -> Ok k
    | Some _ -> Error (`Msg (Printf.sprintf "%s is not a positive integer" s))
    | None -> Error (`Msg (Printf.sprintf "invalid value '%s', expected a positive integer" s))
  in
  Arg.conv (parse, Format.pp_print_int)
