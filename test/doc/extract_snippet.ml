(* Prints, as an OCaml module, the first ```ocaml block after the heading
   given as the second argument in the Markdown file given as the first:

     extract_snippet.exe docs/TESTING.md "## Some heading"

   The block's lines are copied verbatim into the body of [run ()], after
   the opens the documentation's snippets assume.  Exits 1 when the heading
   or the block is missing, so a renamed section fails the build. *)

let () =
  let path = Sys.argv.(1) and heading = Sys.argv.(2) in
  let lines = In_channel.with_open_text path In_channel.input_all |> String.split_on_char '\n' in
  let rec after_heading = function
    | [] -> None
    | l :: rest -> if String.trim l = heading then Some rest else after_heading rest
  in
  let rec block_start = function
    | [] -> None
    | l :: rest -> if String.trim l = "```ocaml" then Some rest else block_start rest
  in
  let rec body acc = function
    | [] -> None
    | l :: rest -> if String.trim l = "```" then Some (List.rev acc) else body (l :: acc) rest
  in
  match Option.bind (Option.bind (after_heading lines) block_start) (body []) with
  | None ->
      Printf.eprintf "%s: no ```ocaml block after %S\n" path heading;
      exit 1
  | Some code ->
      Printf.printf "(* Generated from %s, section %S. *)\n\n" (Filename.basename path) heading;
      print_string "open Rme_sim\nopen Rme_locks\nopen Rme_check\n\nlet run () =\n";
      List.iter (fun l -> print_string l; print_newline ()) code
