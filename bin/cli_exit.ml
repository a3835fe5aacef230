(* Cmdliner exits 124 on a command-line parse error.  These tools promise
   status 2 for every invalid input (docs/USAGE.md), the same status an
   invalid --scenario gets, so [status] remaps the parse-error code and
   [exits] documents the result in the man pages. *)

open Cmdliner

let status code = if code = Cmd.Exit.cli_error then 2 else code

let exits ?(doc = "on invalid input, such as a command-line parse error.") () =
  Cmd.Exit.info 2 ~doc
  :: List.filter (fun i -> Cmd.Exit.info_code i <> Cmd.Exit.cli_error) Cmd.Exit.defaults
