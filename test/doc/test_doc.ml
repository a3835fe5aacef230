(* The documentation's code snippets, compiled and run verbatim. *)

let () =
  Alcotest.run "doc"
    [
      ( "testing.md",
        [ Alcotest.test_case "replay a shrunk witness" `Quick Testing_replay_snippet.run ] );
    ]
