(* Self-tests for the property checkers: each checker must accept correct
   histories and reject histories produced by deliberately broken locks. *)

open Rme_sim
open Rme_locks
open Rme_check

let check = Alcotest.check

let cb = Alcotest.bool

(* A deliberately broken "lock": acquire/release do nothing. *)
let broken_make ctx =
  let id = Engine.Ctx.register_lock ctx "broken" in
  Lock.instrument ~id ~name:"broken"
    ~acquire:(fun ~pid:_ -> Api.yield ())
    ~release:(fun ~pid:_ -> Api.yield ())
    ()

(* A lock that starves pid 0: it never lets it in. *)
let starving_make ctx =
  let mem = Engine.Ctx.memory ctx in
  let id = Engine.Ctx.register_lock ctx "starver" in
  let never = Memory.alloc mem ~name:"starver.never" 0 in
  Lock.instrument ~id ~name:"starver"
    ~acquire:(fun ~pid -> if pid = 0 then Api.spin_until never (Api.Eq 1))
    ~release:(fun ~pid:_ -> ())
    ()

let run ?(record = true) ?trace_ops ?(n = 4) ?(requests = 4) ?(crash = Crash.none)
    ?(sched = Sched.random ~seed:3) ?(max_steps = 200_000) ?cs ~make () =
  Harness.run_lock ~record ?trace_ops ?cs ~max_steps ~n ~model:Memory.CC ~sched ~crash ~requests
    ~make ()

let is_none what = function
  | None -> ()
  | Some msg -> Alcotest.failf "%s unexpectedly rejected: %s" what msg

let is_some what = function
  | None -> Alcotest.failf "%s unexpectedly accepted" what
  | Some _ -> ()

let test_me_checker () =
  let good = run ~make:Wr_lock.make () in
  is_none "me(wr)" (Props.mutual_exclusion good);
  let cs ~pid:_ = for _ = 1 to 10 do Api.yield () done in
  let bad = run ~cs ~make:broken_make () in
  is_some "me(broken)" (Props.mutual_exclusion bad)

let test_sf_checker () =
  let good = run ~make:Tournament.make () in
  is_none "sf(tournament)" (Props.starvation_freedom good ~requests:4);
  let bad = run ~make:starving_make () in
  is_some "sf(starver)" (Props.starvation_freedom bad ~requests:4)

let test_all_satisfied () =
  let good = run ~make:Bakery.make () in
  check cb "satisfied" true (Props.all_satisfied good ~n:4 ~requests:4)

let test_lock_me_checker () =
  let good = run ~make:Wr_lock.make () in
  is_none "lock-me(wr)" (Props.lock_mutual_exclusion good ~lock_id:0);
  let cs ~pid:_ = for _ = 1 to 10 do Api.yield () done in
  let bad = run ~cs ~make:broken_make () in
  is_some "lock-me(broken)" (Props.lock_mutual_exclusion bad ~lock_id:0)

let test_responsiveness_checker () =
  (* WR-Lock under FAS-gap crashes stays within the responsive bound. *)
  let crash = Crash.on_kind ~pid:2 ~kind:Api.Fas ~occurrence:0 Crash.After in
  let lock_id = ref 0 in
  let res =
    Engine.run ~record:true ~n:4 ~model:Memory.CC ~sched:(Sched.round_robin ()) ~crash
      ~setup:(fun ctx ->
        let t = Wr_lock.create ctx in
        lock_id := Wr_lock.lock_id t;
        Wr_lock.lock t)
      ~body:(fun lock ~pid ->
        Harness.standard_body
          ~cs:(fun ~pid:_ -> for _ = 1 to 40 do Api.yield () done)
          ~lock ~requests:2 pid)
      ()
  in
  is_none "responsive(wr)" (Props.responsiveness res ~lock_id:!lock_id);
  is_none "weak-me-intervals(wr)" (Props.weak_me_intervals res ~lock_id:!lock_id);
  (* The broken lock overlaps with zero unsafe failures: the occupancy
     envelope k+1 <= 1 + F is violated and the checker must say so. *)
  let cs ~pid:_ = for _ = 1 to 10 do Api.yield () done in
  let bad = run ~cs ~make:broken_make () in
  is_some "responsiveness(broken)" (Props.responsiveness bad ~lock_id:0)

let test_weak_me_rejects_gratuitous_violation () =
  (* The broken lock violates ME with zero failures: the interval checker
     must reject its history. *)
  let lock_id = ref 0 in
  let res =
    Engine.run ~record:true ~n:4 ~model:Memory.CC ~sched:(Sched.random ~seed:5)
      ~crash:Crash.none
      ~setup:(fun ctx ->
        let lock = broken_make ctx in
        lock_id := 0;
        lock)
      ~body:(fun lock ~pid ->
        Harness.standard_body
          ~cs:(fun ~pid:_ -> for _ = 1 to 10 do Api.yield () done)
          ~lock ~requests:3 pid)
      ()
  in
  is_some "weak-me(broken)" (Props.weak_me_intervals res ~lock_id:!lock_id)

let test_bounded_exit_checker () =
  let lock_id = ref 0 in
  let res =
    Engine.run ~record:true ~trace_ops:true ~n:6 ~model:Memory.CC
      ~sched:(Sched.random ~seed:7) ~crash:Crash.none
      ~setup:(fun ctx ->
        let t = Wr_lock.create ctx in
        lock_id := Wr_lock.lock_id t;
        Wr_lock.lock t)
      ~body:(fun lock ~pid -> Harness.standard_body ~lock ~requests:3 pid)
      ()
  in
  is_none "be(wr)" (Props.bounded_exit res ~lock_id:!lock_id ~bound:10);
  (* An absurdly small bound must be rejected — proves the checker counts. *)
  is_some "be(bound=1)" (Props.bounded_exit res ~lock_id:!lock_id ~bound:1)

let test_bcsr_checker () =
  let lock_id = ref 0 in
  let cs ~pid:_ = Api.note (Event.Custom "w") in
  let crash = Crash.on_custom_note ~pid:0 ~tag:"w" ~occurrence:0 Crash.After in
  let res =
    Engine.run ~record:true ~trace_ops:true ~n:4 ~model:Memory.CC
      ~sched:(Sched.round_robin ()) ~crash
      ~setup:(fun ctx ->
        let t = Wr_lock.create ctx in
        lock_id := Wr_lock.lock_id t;
        Wr_lock.lock t)
      ~body:(fun lock ~pid -> Harness.standard_body ~cs ~lock ~requests:3 pid)
      ()
  in
  is_none "bcsr(wr)" (Props.bcsr res ~lock_id:!lock_id ~bound:14);
  is_some "bcsr(bound=0)" (Props.bcsr res ~lock_id:!lock_id ~bound:0)

let test_fcfs_checker () =
  let res = run ~trace_ops:true ~n:6 ~requests:1 ~sched:(Sched.round_robin ()) ~make:Wr_lock.make () in
  is_none "fcfs(wr)" (Props.fcfs res ~tail_cell:"wr.tail");
  (* A forced overtake: p0 appends to the queue first but p1 enters the CS
     first — append order [0;1] vs CS order [1;0] must be rejected. *)
  let res =
    Engine.run ~record:true ~trace_ops:true ~n:2 ~model:Memory.CC
      ~sched:(Sched.round_robin ()) ~crash:Crash.none
      ~setup:(fun ctx ->
        let mem = Engine.Ctx.memory ctx in
        (Memory.alloc mem ~name:"q.tail" 0, Memory.alloc mem ~name:"q.gate" 0))
      ~body:(fun (tail, gate) ~pid ->
        if pid = 0 then begin
          ignore (Api.fas tail 1);
          Api.spin_until gate (Api.Eq 1);
          Api.note (Event.Seg Event.Cs_begin);
          Api.note (Event.Seg Event.Cs_end)
        end
        else begin
          Api.spin_until tail (Api.Eq 1);
          ignore (Api.fas tail 2);
          Api.note (Event.Seg Event.Cs_begin);
          Api.note (Event.Seg Event.Cs_end);
          Api.write gate 1
        end)
      ()
  in
  is_some "fcfs(overtake)" (Props.fcfs res ~tail_cell:"q.tail")

let test_bounded_recovery_checker () =
  let crash = Crash.on_kind ~pid:0 ~kind:Api.Cas ~occurrence:1 Crash.After in
  let lock_id = ref 0 in
  let res =
    Engine.run ~record:true ~trace_ops:true ~n:3 ~model:Memory.CC
      ~sched:(Sched.round_robin ()) ~crash
      ~setup:(fun ctx ->
        let t = Wr_lock.create ctx in
        lock_id := Wr_lock.lock_id t;
        Wr_lock.lock t)
      ~body:(fun lock ~pid -> Harness.standard_body ~lock ~requests:3 pid)
      ()
  in
  is_none "br(wr)" (Props.bounded_recovery res ~lock_id:!lock_id ~bound:8);
  (* A lock whose recovery burns six scheduling points before re-entering
     must bust a tight bound while staying within a loose one. *)
  let crash = Crash.on_kind ~pid:0 ~kind:Api.Fas ~occurrence:0 Crash.After in
  let slow =
    Engine.run ~record:true ~trace_ops:true ~n:3 ~model:Memory.CC
      ~sched:(Sched.round_robin ()) ~crash
      ~setup:(fun ctx ->
        let lock = Wr_lock.lock (Wr_lock.create ctx) in
        {
          lock with
          Harness.acquire =
            (fun ~pid ->
              for _ = 1 to 6 do Api.yield () done;
              lock.Harness.acquire ~pid);
        })
      ~body:(fun lock ~pid -> Harness.standard_body ~lock ~requests:3 pid)
      ()
  in
  is_some "br(slow, bound=2)" (Props.bounded_recovery slow ~lock_id:0 ~bound:2);
  is_none "br(slow, bound=30)" (Props.bounded_recovery slow ~lock_id:0 ~bound:30)

let test_check_battery () =
  let good = run ~make:Tournament.make () in
  check (Alcotest.list Alcotest.string) "clean battery" []
    (Props.check_battery good ~requests:4 ~weak_lock_ids:[]);
  let cs ~pid:_ = for _ = 1 to 10 do Api.yield () done in
  let bad = run ~cs ~make:broken_make () in
  check cb "battery flags broken lock" true
    (Props.check_battery bad ~requests:4 ~weak_lock_ids:[] <> []);
  (* Weak lock under FAS-gap crashes: interval form accepted. *)
  let crash = Crash.on_kind ~pid:2 ~kind:Api.Fas ~occurrence:0 Crash.After in
  let weak = run ~crash ~cs ~make:Wr_lock.make () in
  check (Alcotest.list Alcotest.string) "weak battery clean" []
    (Props.check_battery weak ~requests:4 ~weak_lock_ids:[ 0 ])

let test_timeline_render () =
  let res = run ~n:3 ~requests:2 ~crash:(Crash.at_op ~pid:1 ~nth:12 Crash.After) ~make:Wr_lock.make () in
  let s = Timeline.render ~width:60 res in
  let lines = String.split_on_char '\n' (String.trim s) in
  check Alcotest.int "one lane per process" 3 (List.length lines);
  List.iter (fun l -> check cb "lane width" true (String.length l = 60 + 5)) lines;
  check cb "crash marked" true (String.contains s 'x');
  check cb "cs marked" true (String.contains s 'C')

let test_replay_consistency () =
  (* The recorded instruction stream of any run must be sequentially
     consistent — a self-check of the engine's trace pipeline. *)
  List.iter
    (fun (make, crash) ->
      let res = run ~trace_ops:true ~n:4 ~requests:3 ~crash ~make () in
      let report = Replay.verify res in
      (match report.Replay.divergence with
      | None -> ()
      | Some d -> Alcotest.fail d);
      check cb "replayed something" true (report.Replay.ops_replayed > 50))
    [
      (Wr_lock.make, Crash.none);
      (Wr_lock.make, Crash.at_op ~pid:1 ~nth:14 Crash.After);
      (Ba_lock.default, Crash.none);
      ((fun ctx -> Kport.as_lock (Kport.create ~k:4 ctx)), Crash.at_op ~pid:0 ~nth:9 Crash.After);
    ]

let test_replay_detects_divergence () =
  (* Feed the checker a corrupted trace: it must flag it. *)
  let res = run ~trace_ops:true ~n:2 ~requests:2 ~make:Wr_lock.make () in
  let corrupted =
    {
      res with
      Engine.events =
        (* Reverse the op stream: reads now precede the writes they saw. *)
        List.rev res.Engine.events;
    }
  in
  let r1 = Replay.verify res in
  let r2 = Replay.verify corrupted in
  check cb "original consistent" true (r1.Replay.divergence = None);
  check cb "corrupted flagged" true (r2.Replay.divergence <> None)

let qcheck_checkers_accept_all_strong_locks =
  QCheck.Test.make ~name:"checkers accept every strong lock under storms" ~count:25
    QCheck.(pair (int_bound 4) (int_bound 9999))
    (fun (which, seed) ->
      let make =
        match which with
        | 0 -> Tournament.make
        | 1 -> Jjj_tree.make
        | 2 -> Bakery.make
        | 3 -> Tas_lock.make
        | _ -> Ba_lock.default
      in
      let crash = Crash.random ~seed ~rate:0.004 ~max_crashes:4 () in
      let res = run ~n:4 ~crash ~sched:(Sched.random ~seed) ~max_steps:2_000_000 ~make () in
      Props.mutual_exclusion res = None
      && Props.starvation_freedom res ~requests:4 = None)

(* ------------------------------------------------------------------ *)
(* Online monitors against the reference scans                         *)
(* ------------------------------------------------------------------ *)

(* [run] once with the history recorded and once without: the monitors
   must not depend on the sink, and must give the reference scans'
   verdicts on the recorded history. *)
let monitored label ~n ~sched ~crash ~setup ~body =
  let go record =
    Engine.run ~record ~max_steps:20_000 ~n ~model:Memory.CC ~sched:(sched ()) ~crash:(crash ())
      ~setup ~body ()
  in
  let res = go true in
  check cb (label ^ ": same facts without a history") true
    ((go false).Engine.monitors = res.Engine.monitors);
  History_oracle.agree label res res.Engine.events;
  res

(* Two processes acquire lock 0 with no failure at all: p0 through an
   abort that lost the race, p1 normally.  Only counting the lost race as
   an acquisition sees two holders. *)
let lost_race_overlap () =
  monitored "lost race" ~n:2 ~sched:Sched.round_robin ~crash:(fun () -> Crash.none)
    ~setup:(fun ctx -> Engine.Ctx.register_lock ctx "fake")
    ~body:(fun id ~pid ->
      let note m = Api.note m in
      note (Event.Lock_enter id);
      if pid = 0 then begin
        note (Event.Abort_lost_race id);
        Api.yield ();
        Api.yield ()
      end
      else note (Event.Lock_acquired id);
      note (Event.Lock_release id);
      note (Event.Lock_released id))

let test_lost_race_is_an_acquisition () =
  let res = lost_race_overlap () in
  match Props.weak_me_intervals res ~lock_id:0 with
  | Some msg ->
      check Alcotest.string "message" "step 5: 2 holders with only 0 active unsafe failures" msg
  | None -> Alcotest.fail "weak ME missed the lost-race holder"

(* p0 wins lock 0 through an abort that lost the race and parks inside
   the CS; p1 parks in the lock's entry section behind it.  The run
   deadlocks with p0 holding the lock, which is no lost hand-off. *)
let lost_race_holder () =
  monitored "lost race holder" ~n:2 ~sched:Sched.round_robin ~crash:(fun () -> Crash.none)
    ~setup:(fun ctx ->
      (Engine.Ctx.register_lock ctx "fake", Memory.alloc (Engine.Ctx.memory ctx) ~name:"never" 0))
    ~body:(fun (id, never) ~pid ->
      Api.note (Event.Lock_enter id);
      if pid = 0 then begin
        Api.note (Event.Abort_lost_race id);
        Api.note (Event.Seg Event.Cs_begin)
      end;
      Api.spin_until never (Api.Eq 1))

let test_lost_race_holds_the_lock () =
  let res = lost_race_holder () in
  check cb "deadlocks" true res.Engine.deadlocked;
  check cb "held at the end" true res.Engine.monitors.Engine.held_at_end;
  is_none "no-lost-wakeup(lost race holder)" (Props.no_lost_wakeup res ~bound:1_000)

(* p0 crashes inside its passage and, restarted, goes straight to the CS
   without a new Req_begin. *)
let skipped_restart () =
  monitored "skipped restart" ~n:2 ~sched:Sched.round_robin
    ~crash:(fun () -> Crash.on_custom_note ~pid:0 ~tag:"w" ~occurrence:0 Crash.After)
    ~setup:(fun ctx -> Memory.alloc (Engine.Ctx.memory ctx) ~name:"started" 0)
    ~body:(fun started ~pid ->
      if pid = 0 && Api.read started = 1 then Api.note (Event.Seg Event.Cs_begin)
      else begin
        if pid = 0 then Api.write started 1;
        Api.note (Event.Seg Event.Req_begin);
        Api.note (Event.Custom "w");
        Api.note (Event.Seg Event.Cs_begin);
        Api.note (Event.Seg Event.Cs_end);
        Api.note (Event.Seg Event.Req_done)
      end)

(* p0 fails unsafely w.r.t. lock 0 while its request is the only one
   outstanding, then restarts and completes it: that closes the failure's
   consequence interval.  Only then do p1 and p2 both acquire the lock,
   which no open failure covers. *)
let closed_interval_overlap () =
  monitored "closed interval" ~n:3 ~sched:Sched.round_robin
    ~crash:(fun () -> Crash.on_kind ~pid:0 ~kind:Api.Fas ~occurrence:0 Crash.After)
    ~setup:(fun ctx ->
      let mem = Engine.Ctx.memory ctx in
      ( Engine.Ctx.register_lock ctx "fake",
        Memory.alloc mem ~name:"restarted" 0,
        Memory.alloc mem ~name:"window" 0,
        Memory.alloc mem ~name:"p0.done" 0 ))
    ~body:(fun (id, restarted, window, p0_done) ~pid ->
      let note m = Api.note m in
      if pid = 0 then begin
        let again = Api.read restarted = 1 in
        Api.write restarted 1;
        note (Event.Seg Event.Req_begin);
        if not again then ignore (Api.fas_open_unsafe ~lock:id window 1);
        note (Event.Seg Event.Req_done);
        Api.write p0_done 1
      end
      else begin
        Api.spin_until p0_done (Api.Eq 1);
        note (Event.Seg Event.Req_begin);
        note (Event.Lock_acquired id);
        Api.yield ();
        Api.yield ();
        note (Event.Lock_release id);
        note (Event.Seg Event.Req_done)
      end)

(* A process that releases the lock its own unresolved Lock_enter names
   does not overtake itself. *)
let self_release () =
  monitored "self release" ~n:1 ~sched:Sched.round_robin ~crash:(fun () -> Crash.none)
    ~setup:(fun ctx -> Engine.Ctx.register_lock ctx "fake")
    ~body:(fun id ~pid:_ ->
      Api.note (Event.Lock_enter id);
      Api.note (Event.Lock_released id))

let standard_run label ~n ~requests ?(cs = Harness.yields 10) ?(crash = fun () -> Crash.none)
    ~make () =
  monitored label ~n ~sched:(fun () -> Sched.random ~seed:5) ~crash ~setup:make
    ~body:(fun lock ~pid -> Harness.standard_body ~cs ~lock ~requests pid)

(* A lock that never lets pids 0 and 1 in: both park in its entry section
   while the others finish. *)
let two_starved_make ctx =
  let mem = Engine.Ctx.memory ctx in
  let id = Engine.Ctx.register_lock ctx "starver" in
  let never = Memory.alloc mem ~name:"starver.never" 0 in
  Lock.instrument ~id ~name:"starver"
    ~acquire:(fun ~pid -> if pid < 2 then Api.spin_until never (Api.Eq 1))
    ~release:(fun ~pid:_ -> ())
    ()

(* The holder of a real lock parks forever in its CS: the waiters behind
   it stall while it holds the lock, which is no lost hand-off. *)
let stuck_holder () =
  monitored "stuck holder" ~n:3 ~sched:Sched.round_robin ~crash:(fun () -> Crash.none)
    ~setup:(fun ctx -> (Wr_lock.make ctx, Memory.alloc (Engine.Ctx.memory ctx) ~name:"never" 0))
    ~body:(fun (lock, never) ~pid ->
      let cs ~pid = if pid = 0 then Api.spin_until never (Api.Eq 1) in
      Harness.standard_body ~cs ~lock ~requests:1 pid)

let test_monitors_planted () =
  let planted =
    [
      ("broken lock", standard_run "broken lock" ~n:4 ~requests:3 ~make:broken_make ());
      ("lost race", lost_race_overlap ());
      ("closed interval", closed_interval_overlap ());
      ("skipped restart", skipped_restart ());
      ( "starved waiters",
        standard_run "starved waiters" ~n:4 ~requests:2 ~make:two_starved_make () );
    ]
  in
  List.iter
    (fun (label, res) ->
      check cb (label ^ ": some violation") true (History_oracle.violations res > 0))
    planted;
  let verdict label f = f (List.assoc label planted) in
  is_some "weak-me(broken)" (verdict "broken lock" (Props.weak_me_intervals ~lock_id:0));
  is_some "weak-me(closed interval)"
    (verdict "closed interval" (Props.weak_me_intervals ~lock_id:0));
  is_some "system-recovery(skipped)" (verdict "skipped restart" Props.system_recovery);
  (match verdict "starved waiters" (Props.no_lost_wakeup ~bound:1_000) with
  | Some msg ->
      check Alcotest.string "stall message"
        "run stalled with p1 (and 1 more) parked in lock 0's entry section while no process \
         holds any lock — a hand-off was lost"
        msg
  | None -> Alcotest.fail "no-lost-wakeup missed the parked waiters");
  is_none "no-lost-wakeup(self release)" (Props.no_lost_wakeup (self_release ()) ~bound:1);
  let held = stuck_holder () in
  check cb "stuck holder deadlocks" true held.Engine.deadlocked;
  is_none "no-lost-wakeup(stuck holder)" (Props.no_lost_wakeup held ~bound:1_000)

(* recover's lock x adversary pairs, and the oblivious arm over the same
   locks, seeds 0-19: each run's monitors against the reference scans of
   its replay's history, and the replay's own. *)
let test_monitors_recover () =
  let locks = [ "wr"; "ba-jjj"; "dm-jjj"; "jjj-sys"; "wr-abort"; "tas-abort" ] in
  let pairs =
    List.concat_map
      (fun key ->
        List.map (fun adv -> (key, adv)) (Chaos.standard_adversaries @ [ Chaos.default_sys_storm ]))
      [ "wr"; "ba-jjj"; "dm-jjj"; "jjj-sys" ]
    @ List.map (fun key -> (key, Chaos.default_impatient_storm)) [ "wr-abort"; "tas-abort" ]
    @ List.map (fun key -> (key, Chaos.Oblivious None)) locks
  in
  check Alcotest.int "pairs" 28 (List.length pairs);
  let violations = ref 0 in
  List.iter
    (fun (key, adversary) ->
      let make = (Rme.Spec.find_exn key).Rme.Spec.make in
      for seed = 0 to 19 do
        let r = Chaos.run_one Chaos.default_cfg ~make ~adversary ~seed in
        let label = Fmt.str "%s %a seed %d" key Chaos.pp_adversary r.Chaos.adversary seed in
        let replayed, diverged =
          Chaos.replay r.Chaos.cfg ~make ~fired:r.Chaos.fired ~ab_fired:r.Chaos.ab_fired
            ~decisions:r.Chaos.decisions ()
        in
        check cb (label ^ " faithful") false diverged;
        History_oracle.agree label r.Chaos.res replayed.Engine.events;
        History_oracle.agree (label ^ " replay") replayed replayed.Engine.events;
        violations := !violations + History_oracle.violations r.Chaos.res
      done)
    pairs;
  check cb "the small overtake bounds flag some runs" true (!violations > 0)

let () =
  Alcotest.run "props"
    [
      ( "checkers",
        [
          Alcotest.test_case "mutual exclusion" `Quick test_me_checker;
          Alcotest.test_case "lock mutual exclusion" `Quick test_lock_me_checker;
          Alcotest.test_case "starvation freedom" `Quick test_sf_checker;
          Alcotest.test_case "all satisfied" `Quick test_all_satisfied;
          Alcotest.test_case "responsiveness" `Quick test_responsiveness_checker;
          Alcotest.test_case "weak-me rejects broken lock" `Quick
            test_weak_me_rejects_gratuitous_violation;
          Alcotest.test_case "bounded exit" `Quick test_bounded_exit_checker;
          Alcotest.test_case "bcsr" `Quick test_bcsr_checker;
          Alcotest.test_case "fcfs" `Quick test_fcfs_checker;
          Alcotest.test_case "bounded recovery" `Quick test_bounded_recovery_checker;
          Alcotest.test_case "timeline render" `Quick test_timeline_render;
          Alcotest.test_case "check battery" `Quick test_check_battery;
          Alcotest.test_case "replay consistency" `Quick test_replay_consistency;
          Alcotest.test_case "replay detects divergence" `Quick test_replay_detects_divergence;
        ] );
      ( "monitors",
        [
          Alcotest.test_case "lost race is an acquisition" `Quick test_lost_race_is_an_acquisition;
          Alcotest.test_case "lost race holds the lock" `Quick test_lost_race_holds_the_lock;
          Alcotest.test_case "planted violations" `Quick test_monitors_planted;
          Alcotest.test_case "recover runs" `Quick test_monitors_recover;
        ] );
      ("property", [ QCheck_alcotest.to_alcotest qcheck_checkers_accept_all_strong_locks ]);
    ]
