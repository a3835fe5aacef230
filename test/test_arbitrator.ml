(* Tests for the splitter and the dual-port recoverable arbitrator,
   including exhaustive schedule exploration (small model checking) of their
   mutual-exclusion properties with and without crashes. *)

open Rme_sim
open Rme_locks
open Rme_check

let check = Alcotest.check

let ci = Alcotest.int

let cb = Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Splitter                                                            *)
(* ------------------------------------------------------------------ *)

let run_splitter ~n ~sched ~crash ~body_of () =
  Engine.run ~n ~model:Memory.CC ~sched ~crash
    ~setup:(fun ctx -> Splitter.create ctx)
    ~body:body_of ()

let test_splitter_single_winner () =
  (* All processes race the splitter once: exactly one takes the fast path. *)
  let winners = ref [] in
  let res =
    run_splitter ~n:6 ~sched:(Sched.random ~seed:3) ~crash:Crash.none
      ~body_of:(fun sp ~pid ->
        if Api.completed_requests () < 1 then begin
          Api.note (Event.Seg Event.Req_begin);
          if Splitter.try_fast sp ~pid then winners := pid :: !winners;
          Api.note (Event.Seg Event.Req_done)
        end)
      ()
  in
  check cb "done" false res.Engine.deadlocked;
  check ci "exactly one winner" 1 (List.length !winners)

let test_splitter_winner_idempotent () =
  (* The occupant re-running try_fast (crash-restart) still wins. *)
  let outcomes = ref [] in
  let (_ : Engine.result) =
    run_splitter ~n:1 ~sched:(Sched.round_robin ()) ~crash:Crash.none
      ~body_of:(fun sp ~pid ->
        if Api.completed_requests () < 1 then begin
          Api.note (Event.Seg Event.Req_begin);
          outcomes := Splitter.try_fast sp ~pid :: !outcomes;
          outcomes := Splitter.try_fast sp ~pid :: !outcomes;
          Api.note (Event.Seg Event.Req_done)
        end)
      ()
  in
  check (Alcotest.list cb) "wins twice" [ true; true ] !outcomes

let test_splitter_release_reopens () =
  let outcomes = ref [] in
  let (_ : Engine.result) =
    run_splitter ~n:2 ~sched:(Sched.greedy ()) ~crash:Crash.none
      ~body_of:(fun sp ~pid ->
        if Api.completed_requests () < 1 then begin
          Api.note (Event.Seg Event.Req_begin);
          let won = Splitter.try_fast sp ~pid in
          outcomes := (pid, won) :: !outcomes;
          if won then Splitter.release sp ~pid;
          Api.note (Event.Seg Event.Req_done)
        end)
      ()
  in
  (* Greedy scheduler serialises: both processes win in turn. *)
  check cb "all won" true (List.for_all snd !outcomes);
  check ci "two rounds" 2 (List.length !outcomes)

let test_splitter_exhaustive_one_winner () =
  (* Model-check: under every interleaving of 2 processes, at most one takes
     the fast path. *)
  let winners = ref 0 in
  let outcome =
    Explore.explore ~max_runs:20_000 ~n:2 ~model:Memory.CC
      ~crash:(fun () -> Crash.none)
      ~setup:(fun ctx ->
        (* [setup] runs once per search: the count restarts with each run. *)
        Engine.Ctx.on_rewind ctx (fun () -> winners := 0);
        Splitter.create ctx)
      ~body:(fun sp ~pid ->
        if Api.completed_requests () < 1 then begin
          Api.note (Event.Seg Event.Req_begin);
          if Splitter.try_fast sp ~pid then incr winners;
          Api.note (Event.Seg Event.Req_done)
        end)
      ~check:(fun _ -> if !winners <= 1 then None else Some "two fast-path winners")
      ()
  in
  check cb "explored all schedules" true outcome.Explore.exhausted;
  check cb
    (Fmt.str "no violation (%a)" Explore.pp_outcome outcome)
    true (outcome.Explore.violation = None);
  check cb "multiple schedules" true (outcome.Explore.runs > 10)

(* ------------------------------------------------------------------ *)
(* Arbitrator                                                          *)
(* ------------------------------------------------------------------ *)

let two_proc_lock ctx = Arbitrator.as_two_process_lock (Arbitrator.create ctx) ~n:2

let run_arb ?record ?(sched = Sched.round_robin ()) ?(crash = Crash.none) ?(model = Memory.CC)
    ?(requests = 6) ?cs () =
  Harness.run_lock ?record ?cs ~n:2 ~model ~sched ~crash ~requests ~make:two_proc_lock ()

let test_arb_me_sf () =
  List.iter
    (fun sched ->
      let res = run_arb ~sched () in
      check cb "no deadlock" false res.Engine.deadlocked;
      check cb "no timeout" false res.Engine.timed_out;
      check ci "all done" 12 (Engine.total_completed res);
      check ci "me" 1 res.Engine.cs_max)
    [ Sched.round_robin (); Sched.random ~seed:1; Sched.random ~seed:2; Sched.greedy () ]

let test_arb_rmr_constant () =
  List.iter
    (fun model ->
      let res = run_arb ~model ~sched:(Sched.random ~seed:4) () in
      check cb
        (Printf.sprintf "O(1) rmr (%d)" (Engine.max_rmr res))
        true
        (Engine.max_rmr res <= 25))
    [ Memory.CC; Memory.DSM ]

let test_arb_crash_sweep_dsm () =
  List.iter
    (fun victim ->
      for nth = 0 to 40 do
        let crash = Crash.at_op ~pid:victim ~nth Crash.After in
        let res = run_arb ~model:Memory.DSM ~requests:3 ~crash () in
        if res.Engine.deadlocked || res.Engine.timed_out then
          Alcotest.failf "stuck (dsm): victim %d op %d" victim nth;
        check ci "all done" 6 (Engine.total_completed res);
        check ci (Printf.sprintf "me (dsm victim %d op %d)" victim nth) 1 res.Engine.cs_max
      done)
    [ 0; 1 ]

let test_arb_crash_sweep () =
  (* Crash either process at every instruction offset; ME and SF must hold
     (the arbitrator is strongly recoverable: no occupancy > 1, ever). *)
  List.iter
    (fun point ->
      List.iter
        (fun victim ->
          for nth = 0 to 50 do
            let crash = Crash.at_op ~pid:victim ~nth point in
            let res = run_arb ~requests:3 ~crash () in
            if res.Engine.deadlocked || res.Engine.timed_out then
              Alcotest.failf "stuck: victim %d op %d" victim nth;
            check ci "all done" 6 (Engine.total_completed res);
            check ci (Printf.sprintf "me (victim %d op %d)" victim nth) 1 res.Engine.cs_max
          done)
        [ 0; 1 ])
    [ Crash.Before; Crash.After ]

let test_arb_exhaustive_me () =
  (* Bounded schedule exploration of one full passage each, no crashes: the
     full interleaving tree of two ~20-instruction passages is astronomical,
     so this is a deep DFS prefix rather than a complete proof. *)
  let outcome =
    Explore.explore ~max_runs:20_000 ~n:2 ~model:Memory.CC
      ~crash:(fun () -> Crash.none)
      ~setup:two_proc_lock
      ~body:(fun lock ~pid -> Harness.standard_body ~lock ~requests:1 pid)
      ~check:(fun res ->
        if res.Engine.cs_max > 1 then Some "ME violation"
        else if res.Engine.deadlocked then Some "deadlock"
        else None)
      ()
  in
  check cb
    (Fmt.str "no violation (%a)" Explore.pp_outcome outcome)
    true (outcome.Explore.violation = None);
  check cb "explored many schedules" true (outcome.Explore.runs >= 20_000)

let test_arb_exhaustive_me_with_crash () =
  (* Bounded exploration with p0 crashing at a fixed instruction — recovery
     must preserve ME and complete under every explored interleaving. *)
  List.iter
    (fun nth ->
      let outcome =
        Explore.explore ~max_runs:8_000 ~n:2 ~model:Memory.CC
          ~crash:(fun () -> Crash.at_op ~pid:0 ~nth Crash.After)
          ~setup:two_proc_lock
          ~body:(fun lock ~pid -> Harness.standard_body ~lock ~requests:1 pid)
          ~check:(fun res ->
            if res.Engine.cs_max > 1 then Some "ME violation"
            else if res.Engine.deadlocked then Some "deadlock"
            else if res.Engine.timed_out then Some "timeout"
            else None)
          ()
      in
      check cb
        (Fmt.str "no violation at crash op %d (%a)" nth Explore.pp_outcome outcome)
        true
        (outcome.Explore.violation = None))
    [ 3; 7; 11; 15 ]

let test_arb_bcsr () =
  (* p0 crashes in CS; it must re-enter before p1 can get in. *)
  let cs ~pid = if pid = 0 then Api.note (Event.Custom "work") in
  let crash = Crash.on_custom_note ~pid:0 ~tag:"work" ~occurrence:0 Crash.After in
  let res = run_arb ~requests:3 ~crash ~cs () in
  check ci "all done" 6 (Engine.total_completed res);
  check ci "me" 1 res.Engine.cs_max

let test_arb_bounded_bypass () =
  (* Peterson's tie-breaker gives bounded bypass 1: under saturated
     contention no side enters twice while the other waits, so the CS order
     of two greedy competitors alternates. *)
  let res = run_arb ~record:true ~sched:(Sched.round_robin ()) ~requests:8 () in
  let order =
    List.filter_map
      (function Event.Note { note = Event.Seg Event.Cs_begin; pid; _ } -> Some pid | _ -> None)
      res.Engine.events
  in
  let rec repeats = function
    | a :: b :: rest -> (a = b && List.length rest >= 1) || repeats (b :: rest)
    | _ -> false
  in
  check ci "16 entries" 16 (List.length order);
  check cb "alternating CS order" false (repeats order)

let test_arb_sides_independent () =
  (* Two fixed processes alternating many passages under a random schedule
     and random crashes: a soak of the wake/arm protocol. *)
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"arbitrator soak" ~count:80
       QCheck.(pair (int_bound 9999) (int_bound 9999))
       (fun (seed, crash_seed) ->
         let crash = Crash.random ~seed:crash_seed ~rate:0.01 ~max_crashes:4 () in
         let res = run_arb ~sched:(Sched.random ~seed) ~crash ~requests:5 () in
         (not res.Engine.deadlocked) && (not res.Engine.timed_out)
         && Engine.total_completed res = 10
         && res.Engine.cs_max = 1))

let () =
  Alcotest.run "arbitrator"
    [
      ( "splitter",
        [
          Alcotest.test_case "single winner" `Quick test_splitter_single_winner;
          Alcotest.test_case "winner idempotent" `Quick test_splitter_winner_idempotent;
          Alcotest.test_case "release reopens" `Quick test_splitter_release_reopens;
          Alcotest.test_case "exhaustive one winner" `Quick test_splitter_exhaustive_one_winner;
        ] );
      ( "arbitrator",
        [
          Alcotest.test_case "me + sf" `Quick test_arb_me_sf;
          Alcotest.test_case "O(1) rmr" `Quick test_arb_rmr_constant;
          Alcotest.test_case "crash sweep" `Slow test_arb_crash_sweep;
          Alcotest.test_case "crash sweep dsm" `Slow test_arb_crash_sweep_dsm;
          Alcotest.test_case "bounded-exhaustive me" `Slow test_arb_exhaustive_me;
          Alcotest.test_case "bounded-exhaustive me with crash" `Slow test_arb_exhaustive_me_with_crash;
          Alcotest.test_case "bcsr" `Quick test_arb_bcsr;
          Alcotest.test_case "bounded bypass" `Quick test_arb_bounded_bypass;
          Alcotest.test_case "soak" `Quick test_arb_sides_independent;
        ] );
    ]
