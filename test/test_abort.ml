(* The abort (impatience) axis: scenario grammar round-trips, the
   composite rule, record/replay from the engine's abort log, the instrumentation
   milestones, the abort battery's negative space (each
   planted pathology trips exactly its own checker), the naive abortable
   TAS caught by no-lost-wakeup with a replay-confirmed witness, and the
   wr-abort acceptance runs — exploration under an impatient abort plan,
   seeded impatient-storm chaos, and 1/2/4-domain byte-identity. *)

open Rme_sim
open Rme_locks
module Chaos = Rme_check.Chaos
module Explore = Rme_check.Explore
module Props = Rme_check.Props
module Workload = Rme.Workload

let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int

let has_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Scenario grammar round-trip                                         *)
(* ------------------------------------------------------------------ *)

let all_arms =
  [
    Workload.No_failures;
    Workload.Fas_storm { f = 3; rate = 0.5 };
    Workload.Random_storm { crashes = 2; rate = 0.01 };
    Workload.Batch { size = 2; at_step = 200; repeat = 2; gap = 1000 };
    Workload.Impatient { timeout_steps = 40; retries = 3; backoff = 2.0 };
  ]

let test_scenario_pp_roundtrip () =
  List.iter
    (fun sc ->
      let printed = Fmt.str "%a" Workload.pp_scenario sc in
      match Workload.scenario_of_string printed with
      | Some sc' ->
          check cb (Printf.sprintf "%s round-trips" printed) true (sc = sc')
      | None -> Alcotest.failf "pp rendering %S does not parse back" printed)
    all_arms

let test_scenario_compact_grammar () =
  let expect str sc =
    match Workload.scenario_of_string str with
    | Some sc' -> check cb (Printf.sprintf "%S parses" str) true (sc = sc')
    | None -> Alcotest.failf "compact form %S rejected" str
  in
  expect "none" Workload.No_failures;
  expect "fas:3" (Workload.Fas_storm { f = 3; rate = 0.5 });
  expect "storm:2" (Workload.Random_storm { crashes = 2; rate = 0.01 });
  expect "batch:2" (Workload.Batch { size = 2; at_step = 200; repeat = 1; gap = 1000 });
  expect "impatient:40" (Workload.Impatient { timeout_steps = 40; retries = 3; backoff = 2.0 });
  expect "impatient:40:2" (Workload.Impatient { timeout_steps = 40; retries = 2; backoff = 2.0 });
  expect "impatient:40:2:1.5"
    (Workload.Impatient { timeout_steps = 40; retries = 2; backoff = 1.5 })

let test_scenario_rejects_garbage () =
  List.iter
    (fun s ->
      check cb (Printf.sprintf "%S rejected" s) true (Workload.scenario_of_string s = None))
    [
      "";
      "bogus";
      "impatient";
      "impatient:x";
      "impatient:40:y";
      "fas";
      "batch:";
      "none:1";
      (* parse, but out of the plans' range *)
      "random-storm(3,rate=7.5)";
      "fas-storm(F=3,rate=7.5)";
      "fas:-3";
      "storm:-1";
      "batch:-1";
      "impatient:0";
      "impatient:40:-1";
      "impatient:40:3:0.5";
    ]

(* ------------------------------------------------------------------ *)
(* pp_fired rendering of abort records                                 *)
(* ------------------------------------------------------------------ *)

let test_pp_ab_fired () =
  let s =
    Fmt.str "%a" Chaos.pp_ab_fired
      { Abort.a_pid = 2; a_op_index = -1; a_step = 311; a_async = true }
  in
  check Alcotest.string "async rendering" "abort:p2@async(step 311)" s;
  let s =
    Fmt.str "%a" Chaos.pp_ab_fired
      { Abort.a_pid = 1; a_op_index = 14; a_step = 7; a_async = false }
  in
  check Alcotest.string "op rendering" "abort:p1@op14(step 7)" s

(* ------------------------------------------------------------------ *)
(* Plan level: the composite rule and record/replay                    *)
(* ------------------------------------------------------------------ *)

let info ~pid ~op_index ~step =
  { Crash.pid; step; op_index; kind = Api.Read; cell = None; note = None; unsafe_wrt = [] }

let test_all_consults_every_member () =
  (* A stateful member behind a firing one winds as if it were alone: the
     random member draws on op 0 although the one-shot fired there, so its
     own firings land where they land without the one-shot. *)
  let random () = Abort.random ~seed:5 ~rate:0.3 ~max_aborts:4 ~pids:[ 0 ] () in
  let signalled plan ops =
    List.filter (fun i -> Abort.on_op plan (info ~pid:0 ~op_index:i ~step:i)) ops
  in
  let ops = List.init 20 Fun.id in
  let alone = signalled (random ()) ops in
  let composite = signalled (Abort.all [ Abort.at_op ~pid:0 ~nth:0; random () ]) ops in
  check (Alcotest.list ci) "the one-shot plus the member's own firings"
    (List.sort_uniq compare (0 :: alone))
    composite;
  (* A composite that skipped the member on op 0 would shift every draw. *)
  let skipped = signalled (random ()) (List.tl ops) |> List.map succ in
  check cb "the rule is observable here" true (List.sort_uniq compare (0 :: skipped) <> composite)

let test_record_replay_roundtrip () =
  (* A union of a one-shot, two async strikes and a random member drives
     wr-abort under a recorded schedule; the engine's abort log then
     replays the run exactly.  The engine ignores the strike at step 0 (p0
     is outside every entry section) and the one-shot on p0's op 6 (the
     step-14 strike already flagged p0), and the log leaves both out. *)
  let run ~sched abort =
    Harness.run_lock ~record:true ~abort ~cs:(fun ~pid:_ -> Api.yield ()) ~n:2 ~model:Memory.CC
      ~sched ~crash:Crash.none ~requests:3
      ~make:(Rme.Spec.find_exn "wr-abort").Rme.Spec.make ()
  in
  let decisions = Vec.create () in
  let original =
    run
      ~sched:(Sched.recording ~inner:(Sched.random ~seed:4) ~decisions)
      (Abort.all
         [
           Abort.at_op ~pid:0 ~nth:6;
           Abort.async_at [ (0, 0); (14, 0) ];
           Abort.random ~seed:2 ~rate:0.3 ~max_aborts:3 ~pids:[ 1 ] ();
         ])
  in
  let log = Engine.abort_log original in
  let coords = List.map (fun a -> (a.Abort.a_step, a.Abort.a_pid)) log in
  check ci "one entry per delivered signal" (List.length original.Engine.aborts) (List.length log);
  check cb "in signal order" true (List.sort compare coords = coords);
  check cb "the ignored decisions are not logged" true
    ((not (List.mem (0, 0) coords)) && List.for_all (fun a -> a.Abort.a_op_index <> 6) log);
  check cb "both axes delivered" true
    (List.exists (fun a -> a.Abort.a_async) log
    && List.exists (fun a -> not a.Abort.a_async) log);
  check cb "on-op entries keep their op index" true
    (List.for_all (fun a -> a.Abort.a_async = (a.Abort.a_op_index < 0)) log);
  let replayed =
    run
      ~sched:(Sched.trace ~decisions ~record:(Vec.create ()) ())
      (Abort.replay_fired log)
  in
  check cb "replay re-delivers the same signals" true
    (original.Engine.aborts = replayed.Engine.aborts);
  check cb "replay logs the same signals" true (Engine.abort_log replayed = log);
  check cb "replay has the same history" true (original.Engine.events = replayed.Engine.events)

(* ------------------------------------------------------------------ *)
(* Instrumentation milestones when release raises                      *)
(* ------------------------------------------------------------------ *)

exception Boom

let test_release_raises_still_notes () =
  let raised = ref false in
  let res =
    Engine.run ~record:true ~n:1 ~model:Memory.CC ~sched:(Sched.round_robin ())
      ~crash:Crash.none
      ~setup:(fun ctx ->
        let id = Engine.Ctx.register_lock ctx "boom" in
        Lock.instrument ~id ~name:"boom"
          ~acquire:(fun ~pid:_ -> ())
          ~release:(fun ~pid:_ -> raise Boom)
          ())
      ~body:(fun lock ~pid ->
        lock.Lock.acquire ~pid;
        try lock.Lock.release ~pid with Boom -> raised := true)
      ()
  in
  check cb "exception propagated out of release" true !raised;
  let notes =
    List.filter_map
      (function Event.Note { note; _ } -> Some note | _ -> None)
      res.Engine.events
  in
  check cb "Lock_release emitted before the raise" true (List.mem (Event.Lock_release 0) notes);
  check cb "Lock_released suppressed by the raise" false
    (List.mem (Event.Lock_released 0) notes)

(* ------------------------------------------------------------------ *)
(* Planted pathologies: each trips exactly its own checker             *)
(* ------------------------------------------------------------------ *)

(* A minimal correct abortable test-and-set with an injectable abort
   protocol body: acquisition competes via CAS (nothing registered, so
   withdrawing needs no shared-state repair) and the abort protocol runs
   [abort_work] before reporting [Aborted].  The two pathologies differ
   only in what [abort_work] costs. *)
let planted_abortable ~abort_work ctx =
  let mem = Engine.Ctx.memory ctx in
  let id = Engine.Ctx.register_lock ctx "planted" in
  let owner = Memory.alloc mem ~name:"planted.owner" 0 in
  Lock.instrument ~id ~name:"planted"
    ~try_abort:(fun ~pid:_ ->
      abort_work ();
      Harness.Aborted)
    ~acquire:(fun ~pid ->
      let rec go () =
        if not (Api.cas owner ~expect:0 ~value:(pid + 1)) then begin
          Api.spin_abortable owner (Api.Eq 0);
          if Api.poll_abort () then raise Api.Abort_signal;
          go ()
        end
      in
      go ())
    ~release:(fun ~pid:_ -> Api.write owner 0)
    ()

let run_planted ~abort_work =
  Harness.run_lock ~record:true ~max_steps:200_000 ~n:3 ~model:Memory.CC
    ~sched:(Sched.random ~seed:5)
    ~crash:Crash.none
    ~abort:(Abort.impatient ~timeout_steps:12 ())
    ~requests:2
    ~make:(fun ctx -> planted_abortable ~abort_work ctx)
    ()

let bounds = Props.default_abort_expect

let assert_trips_only res ~which =
  let liveness = Props.abort_liveness res ~bound:bounds.Props.liveness_bound ~supported:true in
  let wakeup = Props.no_lost_wakeup res ~bound:bounds.Props.overtake_bound in
  let rmr = Props.abort_rmr res ~bound:bounds.Props.rmr_bound in
  let expect name expected got =
    check cb
      (Printf.sprintf "%s %s" name (if expected then "trips" else "silent"))
      expected (got <> None)
  in
  expect "abort-liveness" (which = `Liveness) liveness;
  expect "no-lost-wakeup" (which = `Wakeup) wakeup;
  expect "abort-rmr" (which = `Rmr) rmr

let test_planted_slow_abort_trips_liveness () =
  (* The abort protocol spins ~600 steps on one cached cell: far over the
     own-step budget, but only one RMR's worth of coherence traffic. *)
  let scratch = ref None in
  let res =
    Harness.run_lock ~record:true ~max_steps:200_000 ~n:3 ~model:Memory.CC
      ~sched:(Sched.random ~seed:5)
      ~crash:Crash.none
      ~abort:(Abort.impatient ~timeout_steps:12 ())
      ~requests:2
      ~make:(fun ctx ->
        let mem = Engine.Ctx.memory ctx in
        scratch := Some (Memory.alloc mem ~name:"planted.scratch" 0);
        planted_abortable
          ~abort_work:(fun () ->
            let c = Option.get !scratch in
            for _ = 1 to 600 do
              ignore (Api.read c)
            done)
          ctx)
      ()
  in
  check cb "some abort resolved" true (res.Engine.aborts <> []);
  assert_trips_only res ~which:`Liveness

let test_planted_expensive_abort_trips_rmr () =
  (* The abort protocol touches 100 distinct cells, each a fresh cache
     miss: over the RMR budget, but well inside the own-step budget. *)
  let cells = ref [||] in
  let res =
    Harness.run_lock ~record:true ~max_steps:200_000 ~n:3 ~model:Memory.CC
      ~sched:(Sched.random ~seed:5)
      ~crash:Crash.none
      ~abort:(Abort.impatient ~timeout_steps:12 ())
      ~requests:2
      ~make:(fun ctx ->
        let mem = Engine.Ctx.memory ctx in
        cells :=
          Array.init 100 (fun i -> Memory.alloc mem ~name:(Printf.sprintf "planted.c%d" i) 0);
        planted_abortable
          ~abort_work:(fun () -> Array.iter (fun c -> ignore (Api.read c)) !cells)
          ctx)
      ()
  in
  check cb "some abort resolved" true (res.Engine.aborts <> []);
  assert_trips_only res ~which:`Rmr

let test_planted_cheap_abort_trips_nothing () =
  let res = run_planted ~abort_work:(fun () -> ()) in
  check cb "some abort resolved" true (res.Engine.aborts <> []);
  assert_trips_only res ~which:`None

(* The naive abortable TAS drops a posted grant on abort; some waiter
   parks forever on a hand-off nobody will repeat.  no_lost_wakeup is the
   checker built for exactly this signature. *)
let naive_tas_stall_res () =
  let rec hunt seed =
    if seed > 64 then Alcotest.fail "naive TAS never stalled in 64 seeds"
    else
      let res =
        Harness.run_lock ~record:true ~max_steps:60_000 ~n:3 ~model:Memory.CC
          ~sched:(Sched.random ~seed)
          ~crash:Crash.none
          ~abort:(Abort.impatient ~timeout_steps:15 ~retries:2 ())
          ~requests:3 ~make:Tas_abort.make_naive ()
      in
      if Props.no_lost_wakeup res ~bound:bounds.Props.overtake_bound <> None then res
      else hunt (seed + 1)
  in
  hunt 0

let test_naive_tas_trips_no_lost_wakeup () =
  let res = naive_tas_stall_res () in
  History_oracle.agree "naive tas" res res.Engine.events;
  (match Props.no_lost_wakeup res ~bound:bounds.Props.overtake_bound with
  | Some msg ->
      check cb "reports a lost hand-off or overtake"
        true
        (has_sub ~sub:"hand-off was lost" msg || has_sub ~sub:"overtaken" msg)
  | None -> Alcotest.fail "unreachable");
  (* The correct variant is clean on the same workload, every seed. *)
  for seed = 0 to 16 do
    let res =
      Harness.run_lock ~record:true ~max_steps:60_000 ~n:3 ~model:Memory.CC
        ~sched:(Sched.random ~seed)
        ~crash:Crash.none
        ~abort:(Abort.impatient ~timeout_steps:15 ~retries:2 ())
        ~requests:3 ~make:Tas_abort.make ()
    in
    check cb
      (Printf.sprintf "correct tas-abort clean (seed %d)" seed)
      true
      (Props.no_lost_wakeup res ~bound:bounds.Props.overtake_bound = None)
  done

(* ------------------------------------------------------------------ *)
(* Chaos: the impatient storm catches the naive TAS, replay-faithfully  *)
(* ------------------------------------------------------------------ *)

let naive_case =
  {
    Chaos.case_name = "tas-abort-naive";
    case_make = Tas_abort.make_naive;
    case_weak = false;
    case_ff_bound = None;
    case_abortable = true;
  }

let test_impatient_storm_catches_naive_tas () =
  let outcome =
    Chaos.campaign ~adversaries:[ Chaos.default_impatient_storm ] ~runs:24 ~seed_base:0
      [ naive_case ]
  in
  check cb "some abort signals injected" true (outcome.Chaos.aborts > 0);
  match
    List.find_opt
      (fun v -> List.exists (has_sub ~sub:"no-lost-wakeup") v.Chaos.v_problems)
      outcome.Chaos.violations
  with
  | None -> Alcotest.failf "campaign missed the planted lost wakeup (%d runs)" outcome.Chaos.runs
  | Some v ->
      check cb "abort record non-empty" true (v.Chaos.v_ab_fired <> []);
      (* The fixed replay plan re-triggered the same property violation
         under the recorded schedule, and the shrunk witness still does. *)
      check cb "replay-confirmed" true v.Chaos.v_replay_ok;
      let cfg = Chaos.default_cfg in
      let check_res res =
        if Props.no_lost_wakeup res ~bound:bounds.Props.overtake_bound <> None then Some "nlw"
        else None
      in
      let res, mismatch =
        Chaos.replay cfg ~make:naive_case.Chaos.case_make ~fired:v.Chaos.v_fired
          ~ab_fired:v.Chaos.v_ab_fired ~decisions:v.Chaos.v_witness ()
      in
      check cb "shrunk witness replays faithfully" false mismatch;
      check cb "shrunk witness still violates" true (check_res res <> None)

(* ------------------------------------------------------------------ *)
(* Acceptance: wr-abort holds the abort battery                        *)
(* ------------------------------------------------------------------ *)

let wr_abort_make = (Rme.Spec.find_exn "wr-abort").Rme.Spec.make

let battery_check res =
  match
    Props.check_battery ~abort:Props.default_abort_expect res ~requests:1 ~weak_lock_ids:[]
  with
  | [] -> if res.Engine.deadlocked then Some "deadlock" else None
  | p :: _ -> Some p

let explore_wr_abort ?(max_runs = 40_000) ~crash () =
  Explore.explore ~max_runs ~max_steps:30_000 ~record:true
    ~abort:(fun () -> Abort.impatient ~timeout_steps:25 ~retries:2 ())
    ~n:2 ~model:Memory.CC ~crash ~setup:wr_abort_make
    ~body:(fun lock ~pid -> Harness.standard_body ~lock ~requests:1 pid)
    ~check:battery_check ()

(* Exhaustive acceptance: the impatient plan is Sensitive (its decisions
   read waiting ages), so it forces the unreduced tier, where the wr tree
   at n=2 is far beyond any test budget.  The robust {!Abort.at_op} plan
   keeps source-set POR sound — por_setup unions its victim into the
   crashy set — so every (victim, op-index) abort site is explored to
   exhaustion.  no_lost_wakeup reads the order of notes across processes,
   which POR does not preserve (a search that checks it runs with
   [record], which downgrades POR), so this pass holds the aggregate props
   — ME, deadlock-freedom, abort-liveness, abort-RMR — and the bounded
   impatient pass below covers the history checker. *)
let aggregate_check res =
  if res.Engine.cs_max > 1 then Some "mutual-exclusion"
  else if res.Engine.deadlocked then Some "deadlock"
  else
    match Props.abort_liveness res ~bound:bounds.Props.liveness_bound ~supported:true with
    | Some m -> Some ("abort-liveness: " ^ m)
    | None -> (
        match Props.abort_rmr res ~bound:bounds.Props.rmr_bound with
        | Some m -> Some ("abort-rmr: " ^ m)
        | None -> None)

let test_wr_abort_exhaustive_at_op () =
  List.iter
    (fun (victim, nth) ->
      let outcome =
        Explore.explore ~max_runs:400_000 ~max_steps:30_000 ~por:`Source
          ~abort:(fun () -> Abort.at_op ~pid:victim ~nth)
          ~n:2 ~model:Memory.CC
          ~crash:(fun () -> Crash.none)
          ~setup:wr_abort_make
          ~body:(fun lock ~pid -> Harness.standard_body ~lock ~requests:1 pid)
          ~check:aggregate_check ()
      in
      (match outcome.Explore.violation with
      | None -> ()
      | Some (msg, _) ->
          Alcotest.failf "wr-abort violated %s (abort at p%d op %d)" msg victim nth);
      check cb
        (Printf.sprintf "exhausted for abort at p%d op %d (%d runs)" victim nth
           outcome.Explore.runs)
        true outcome.Explore.exhausted)
    (List.concat_map (fun victim -> List.map (fun nth -> (victim, nth)) [ 2; 5; 9; 14 ]) [ 0; 1 ])

let test_wr_abort_explored_clean () =
  let outcome = explore_wr_abort ~crash:(fun () -> Crash.none) () in
  match outcome.Explore.violation with
  | None -> ()
  | Some (msg, _) -> Alcotest.failf "wr-abort violated %s under exploration" msg

let test_wr_abort_explored_clean_under_crashes () =
  (* The abort axis layered over a one-crash storm: wr-abort must hold the
     full battery on every interleaving the budget reaches. *)
  let outcome =
    explore_wr_abort ~crash:(fun () -> Crash.random ~seed:3 ~rate:0.02 ~max_crashes:1 ()) ()
  in
  match outcome.Explore.violation with
  | None -> ()
  | Some (msg, _) -> Alcotest.failf "wr-abort violated %s under crash+abort exploration" msg

let test_wr_abort_chaos_clean () =
  let case =
    {
      Chaos.case_name = "wr-abort";
      case_make = wr_abort_make;
      case_weak = false;
      case_ff_bound = None;
      case_abortable = true;
    }
  in
  let outcome =
    Chaos.campaign
      ~adversaries:
        [
          Chaos.default_impatient_storm;
          Chaos.Storm { rate = 0.004; max_crashes = 4; gap = 300; backoff = 2.0 };
        ]
      ~runs:10 ~seed_base:0 [ case ]
  in
  check ci "all runs completed" 20 outcome.Chaos.runs;
  check cb "abort signals injected" true (outcome.Chaos.aborts > 0);
  check cb "crashes injected" true (outcome.Chaos.crashes > 0);
  check ci "no violations" 0 (List.length outcome.Chaos.violations)

let test_wr_abort_short_search_clean () =
  let outcome = explore_wr_abort ~max_runs:4_000 ~crash:(fun () -> Crash.none) () in
  check cb "no violation" true (outcome.Explore.violation = None)

(* The no-lost-wakeup gate over every abortable lock: under no, mild and
   heavy impatience, on ten seeds each, no waiter may be overtaken past the
   bound or left parked behind a free lock.  The impatient profiles must
   actually deliver abort signals, or the gate would pass vacuously. *)
let test_abortable_no_lost_wakeup_stall () =
  let profiles =
    [
      ("none", Workload.No_failures);
      ("mild", Workload.Impatient { timeout_steps = 120; retries = 2; backoff = 2.0 });
      ("heavy", Workload.Impatient { timeout_steps = 25; retries = 4; backoff = 1.5 });
    ]
  in
  let runs = ref 0 in
  List.iter
    (fun key ->
      let spec = Rme.Spec.find_exn key in
      List.iter
        (fun (profile, scenario) ->
          let signals = ref 0 in
          for seed = 0 to 9 do
            let res =
              Workload.run spec
                {
                  Workload.default_cfg with
                  n = 8;
                  requests = 6;
                  seed;
                  scenario;
                  record = true;
                  max_steps = 2_000_000;
                }
            in
            incr runs;
            signals := !signals + List.length res.Engine.aborts;
            match Props.no_lost_wakeup res ~bound:bounds.Props.overtake_bound with
            | None -> ()
            | Some msg -> Alcotest.failf "%s under %s impatience, seed %d: %s" key profile seed msg
          done;
          if scenario <> Workload.No_failures then
            check cb (Printf.sprintf "%s under %s impatience is signalled" key profile) true
              (!signals > 0))
        profiles)
    [ "wr-abort"; "bakery-abort"; "tas-abort" ];
  check ci "runs judged" 90 !runs

let () =
  Alcotest.run "abort"
    [
      ( "scenario",
        [
          Alcotest.test_case "pp round-trips every arm" `Quick test_scenario_pp_roundtrip;
          Alcotest.test_case "compact grammar" `Quick test_scenario_compact_grammar;
          Alcotest.test_case "rejects garbage" `Quick test_scenario_rejects_garbage;
          Alcotest.test_case "pp_ab_fired" `Quick test_pp_ab_fired;
        ] );
      ( "plans",
        [
          Alcotest.test_case "all consults every member" `Quick test_all_consults_every_member;
          Alcotest.test_case "record/replay round trip" `Quick test_record_replay_roundtrip;
        ] );
      ( "milestones",
        [
          Alcotest.test_case "release raising still notes Lock_release" `Quick
            test_release_raises_still_notes;
        ] );
      ( "negative",
        [
          Alcotest.test_case "slow abort trips liveness only" `Quick
            test_planted_slow_abort_trips_liveness;
          Alcotest.test_case "expensive abort trips rmr only" `Quick
            test_planted_expensive_abort_trips_rmr;
          Alcotest.test_case "cheap abort trips nothing" `Quick
            test_planted_cheap_abort_trips_nothing;
          Alcotest.test_case "naive tas trips no-lost-wakeup only" `Quick
            test_naive_tas_trips_no_lost_wakeup;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "impatient storm catches naive tas" `Quick
            test_impatient_storm_catches_naive_tas;
        ] );
      ( "acceptance",
        [
          Alcotest.test_case "wr-abort exhaustive at-op aborts" `Slow
            test_wr_abort_exhaustive_at_op;
          Alcotest.test_case "wr-abort explored clean" `Slow test_wr_abort_explored_clean;
          Alcotest.test_case "wr-abort explored clean under crashes" `Slow
            test_wr_abort_explored_clean_under_crashes;
          Alcotest.test_case "wr-abort chaos clean" `Quick test_wr_abort_chaos_clean;
          Alcotest.test_case "wr-abort 4,000-run search clean" `Slow
            test_wr_abort_short_search_clean;
          Alcotest.test_case "abortable locks: no lost-wakeup stall" `Quick
            test_abortable_no_lost_wakeup_stall;
        ] );
    ]
