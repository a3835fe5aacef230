(* The chaos layer: adaptive adversaries, the stall watchdog, the
   adaptivity-contract monitors, and the campaign's discover → replay →
   shrink bridge.

   The headline pins of ISSUE 4 live here: the holder-targeting adversary
   rediscovers the WR-Lock FAS-gap ME overlap from random execution and
   shrinks it to a deterministic at-op witness; the Theorem 5.17 monitor
   holds for BA-Lock across >= 1000 seeded adversarial runs; and a planted
   livelock is classified [Livelock] with culprit pids instead of a bare
   timeout. *)

open Rme_sim
module Chaos = Rme_check.Chaos
module Props = Rme_check.Props

let cb = Alcotest.bool
let ci = Alcotest.int
let check = Alcotest.check

let info ?(pid = 0) ?(step = 0) ?(op_index = 0) ?(kind = Api.Read) ?cell ?note
    ?(unsafe_wrt = []) () =
  { Crash.pid; step; op_index; kind; cell; note; unsafe_wrt }

let is_crash = function Crash.Crash _ -> true | Crash.No_crash -> false

let has_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let has_prefix ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

(* ------------------------------------------------------------------ *)
(* Adversary constructors (unit, synthetic op streams)                 *)
(* ------------------------------------------------------------------ *)

let test_target_holder_span () =
  let plan = Crash.target_holder ~seed:0 ~rate:1.0 ~max_crashes:2 () in
  (* Outside any lock span: never strikes, even at rate 1. *)
  check cb "ncs op spared" false (is_crash (Crash.on_op plan (info ())));
  (* Entering the span makes every op (the note included) a strike point. *)
  check cb "strikes at Lock_enter" true
    (is_crash (Crash.on_op plan (info ~kind:Api.Note ~note:(Event.Lock_enter 0) ())));
  (* The crash restarted the victim: a fresh passage begins outside the
     span, so the stale marking must not leak into the NCS. *)
  check cb "Req_begin clears the span" false
    (is_crash (Crash.on_op plan (info ~kind:Api.Note ~note:(Event.Seg Event.Req_begin) ())));
  check cb "post-restart ncs op spared" false (is_crash (Crash.on_op plan (info ())));
  check cb "re-entering strikes again" true
    (is_crash (Crash.on_op plan (info ~kind:Api.Note ~note:(Event.Lock_enter 0) ())));
  (* Budget exhausted. *)
  check cb "budget respected" false
    (is_crash (Crash.on_op plan (info ~kind:Api.Note ~note:(Event.Lock_enter 0) ())))

let test_target_holder_lock_filter () =
  let plan = Crash.target_holder ~lock:3 ~seed:0 ~rate:1.0 ~max_crashes:1 () in
  check cb "other lock's span ignored" false
    (is_crash (Crash.on_op plan (info ~kind:Api.Note ~note:(Event.Lock_enter 0) ())));
  check cb "tracked lock strikes" true
    (is_crash (Crash.on_op plan (info ~kind:Api.Note ~note:(Event.Lock_enter 3) ())))

let test_target_window () =
  let plan = Crash.target_window ~seed:0 ~rate:1.0 ~max_crashes:1 () in
  check cb "no window, no crash" false (is_crash (Crash.on_op plan (info ())));
  (match Crash.on_op plan (info ~unsafe_wrt:[ 0 ] ()) with
  | Crash.Crash Crash.Before -> ()
  | Crash.Crash Crash.After -> Alcotest.fail "window crash must strike Before (inside the window)"
  | Crash.No_crash -> Alcotest.fail "open window at rate 1 must crash");
  check cb "budget respected" false (is_crash (Crash.on_op plan (info ~unsafe_wrt:[ 0 ] ())))

let test_repeat_offender_cadence () =
  let plan = Crash.repeat_offender ~victim:1 ~gap:2 ~times:2 in
  let feed ?note pid = is_crash (Crash.on_op plan (info ~pid ?note ())) in
  check cb "other pids untouched" false (feed 0);
  (* Victim: armed at Req_begin, strikes [gap] ops later, re-arms on each
     restart, [times] crashes total. *)
  check cb "arming op spared" false (feed ~note:(Event.Seg Event.Req_begin) 1);
  check cb "countdown op 1" false (feed 1);
  check cb "first strike" true (feed 1);
  check cb "restart countdown 1" false (feed 1);
  check cb "restart countdown 2" false (feed 1);
  check cb "second strike" true (feed 1);
  check cb "budget exhausted" false (feed 1);
  check cb "stays exhausted" false (feed 1)

let test_storm_gap_backoff () =
  let plan = Crash.storm ~seed:0 ~rate:1.0 ~max_crashes:3 ~gap:10 ~backoff:2.0 () in
  let at step = is_crash (Crash.on_op plan (info ~step ())) in
  check cb "first op crashes" true (at 0);
  check cb "cooldown at step 5" false (at 5);
  check cb "cooldown at step 9" false (at 9);
  check cb "gap over at step 10" true (at 10);
  (* Backoff doubled the gap: next window opens at 10 + 20. *)
  check cb "cooldown at step 29" false (at 29);
  check cb "gap over at step 30" true (at 30);
  check cb "budget exhausted" false (at 1000)

let test_storm_validation () =
  Alcotest.check_raises "backoff < 1 rejected"
    (Invalid_argument "Crash.storm: backoff must be >= 1") (fun () ->
      ignore (Crash.storm ~seed:0 ~rate:0.1 ~max_crashes:1 ~gap:0 ~backoff:0.5 ()))

(* A plan that fires on every op of two pids, run to its six crashes;
   returns the engine's crash log and the coordinates the [on_op] hook
   observed. *)
let six_crash_run () =
  let seen = ref [] in
  let res =
    Engine.run ~n:2 ~model:Memory.CC ~sched:(Sched.round_robin ())
      ~crash:(Crash.random ~seed:1 ~rate:1.0 ~max_crashes:6 ())
      ~on_op:(fun (i : Crash.op_info) -> seen := (i.pid, i.op_index, i.step) :: !seen)
      ~setup:(fun ctx -> Memory.alloc (Engine.Ctx.memory ctx) ~name:"c" 0)
      ~body:(fun c ~pid:_ ->
        for _ = 1 to 4 do
          Api.write c 1
        done)
      ()
  in
  (res, !seen)

(* The composite replay plan strikes exactly the logged coordinates, each
   at its logged point, and nothing else. *)
let test_crash_log_and_replay_fired () =
  let res, _ = six_crash_run () in
  let log = res.Engine.crash_log in
  check cb "every entry is on-op" true (List.for_all (fun (f : Crash.fired) -> not f.f_async) log);
  let replay = Crash.replay_fired log in
  List.iter
    (fun (f : Crash.fired) ->
      let label = Printf.sprintf "replays p%d op %d" f.f_pid f.f_op_index in
      check cb label true
        (Crash.on_op replay (info ~pid:f.f_pid ~op_index:f.f_op_index ()) = Crash.Crash f.f_point))
    log;
  check cb "spares everything else" false
    (is_crash (Crash.on_op replay (info ~pid:0 ~op_index:1_000 ())))

(* The engine logs each on-op crash at the coordinates the [on_op] hook
   observed, copied out of the one [op_info] it refills per instruction:
   six firings give six distinct entries. *)
let test_crash_log_copies_reused_info () =
  let res, seen = six_crash_run () in
  let coords =
    List.map (fun (f : Crash.fired) -> (f.f_pid, f.f_op_index, f.f_step)) res.Engine.crash_log
  in
  check ci "six crashes" 6 res.Engine.total_crashes;
  check ci "six entries" 6 (List.length coords);
  check ci "distinct (pid, op_index, step)" 6 (List.length (List.sort_uniq compare coords));
  check cb "both pids struck" true
    (List.exists (fun (p, _, _) -> p = 0) coords && List.exists (fun (p, _, _) -> p = 1) coords);
  check cb "each entry is an observed op" true (List.for_all (fun c -> List.mem c seen) coords)

(* Both pids an asynchronous decision names are logged; one aimed at a
   halted pid or at a pid the run does not have is not, since nothing is
   delivered. *)
let test_crash_log_every_async_pid () =
  let res =
    Engine.run ~n:2 ~model:Memory.CC ~sched:(Sched.round_robin ())
      ~crash:(Crash.async_at [ (5, 0); (5, 1); (5, 7); (50, 0) ])
      ~setup:(fun _ -> ())
      ~body:(fun () ~pid ->
        for _ = 1 to if pid = 0 then 10 else 60 do
          Api.yield ()
        done)
      ()
  in
  check cb "p1 outlived the last decision" true (res.Engine.steps > 50);
  check
    Alcotest.(list (triple int int bool))
    "both pids at step 5"
    [ (0, 5, true); (1, 5, true) ]
    (List.map (fun (f : Crash.fired) -> (f.f_pid, f.f_step, f.f_async)) res.Engine.crash_log);
  check ci "neither the halted nor the missing pid was crashed" 2 res.Engine.total_crashes

let test_adversary_of_string () =
  check cb "holder parses" true (Result.is_ok (Chaos.adversary_of_string "holder"));
  check cb "WINDOW parses" true (Result.is_ok (Chaos.adversary_of_string "WINDOW"));
  check cb "offender parses" true (Result.is_ok (Chaos.adversary_of_string "offender"));
  check cb "storm parses" true (Result.is_ok (Chaos.adversary_of_string "storm"));
  check cb "junk rejected" true (Result.is_error (Chaos.adversary_of_string "junk"));
  (* The oblivious arm is soak's mode without --adversary, not a name. *)
  check cb "oblivious has no CLI name" true
    (Result.is_error (Chaos.adversary_of_string "oblivious"));
  (* Each CLI name yields exactly the campaign default it names. *)
  List.iter
    (fun (s, adv) ->
      check cb (s ^ " is the campaign default") true (Chaos.adversary_of_string s = Ok adv))
    (List.combine [ "holder"; "window"; "offender"; "storm" ] Chaos.standard_adversaries
    @ [
        ("sys-storm", Chaos.default_sys_storm);
        ("system_storm", Chaos.default_sys_storm);
        ("impatient", Chaos.default_impatient_storm);
        ("impatient_storm", Chaos.default_impatient_storm);
      ])

(* ------------------------------------------------------------------ *)
(* Stall watchdog                                                      *)
(* ------------------------------------------------------------------ *)

let gate_setup ctx = Memory.alloc (Engine.Ctx.memory ctx) ~name:"gate" 0

let test_planted_livelock () =
  (* Two processes spin forever on a gate nobody opens: the run times out
     with both still burning steps and zero progress — a livelock, and the
     watchdog must say so and name both pids. *)
  let res =
    Engine.run ~max_steps:3_000 ~n:2 ~model:Memory.CC ~sched:(Sched.round_robin ())
      ~crash:Crash.none ~setup:gate_setup
      ~body:(fun gate ~pid:_ ->
        Api.note (Event.Seg Event.Req_begin);
        while Api.read gate = 0 do
          Api.yield ()
        done)
      ()
  in
  check cb "timed out" true res.Engine.timed_out;
  match res.Engine.stall with
  | Some { Engine.stall_kind = Engine.Livelock; culprits } ->
      check (Alcotest.list ci) "both pids blamed" [ 0; 1 ] (List.map fst culprits);
      List.iter (fun (_, seg) -> check Alcotest.string "in entry segment" "entry" seg) culprits
  | Some s -> Alcotest.failf "expected Livelock, got %a" Engine.pp_stall s
  | None -> Alcotest.fail "timed-out run left undiagnosed"

let test_planted_starvation () =
  (* p0 parks on a gate that never opens while p1/p2 keep completing
     requests: starvation of p0, and the segment shows where it hangs. *)
  let res =
    Engine.run ~max_steps:3_000 ~stall_window:500 ~n:3 ~model:Memory.CC
      ~sched:(Sched.round_robin ()) ~crash:Crash.none ~setup:gate_setup
      ~body:(fun gate ~pid ->
        if pid = 0 then begin
          Api.note (Event.Seg Event.Req_begin);
          Api.spin_until gate (Api.Eq 1)
        end
        else
          while true do
            Api.note (Event.Seg Event.Req_begin);
            Api.yield ();
            Api.note (Event.Seg Event.Req_done)
          done)
      ()
  in
  (match res.Engine.stall with
  | Some { Engine.stall_kind = Engine.Starvation; culprits = [ (0, seg) ] } ->
      check Alcotest.string "parked segment named" "entry parked@gate" seg
  | Some s -> Alcotest.failf "expected Starvation of p0, got %a" Engine.pp_stall s
  | None -> Alcotest.fail "timed-out run left undiagnosed");
  (* Props.starvation_freedom surfaces the diagnosis instead of a bare
     timeout message. *)
  match Props.starvation_freedom res ~requests:1 with
  | Some msg -> check cb "names the verdict" true (has_sub ~sub:"starvation" msg)
  | None -> Alcotest.fail "starvation freedom should be violated"

let test_underbudget_diagnosis () =
  (* Everyone still progressing when the step budget runs out: the
     watchdog must not cry livelock. *)
  let res =
    Engine.run ~max_steps:2_000 ~stall_window:1_000 ~n:2 ~model:Memory.CC
      ~sched:(Sched.round_robin ()) ~crash:Crash.none ~setup:gate_setup
      ~body:(fun _ ~pid:_ ->
        while true do
          Api.note (Event.Seg Event.Req_begin);
          Api.yield ();
          Api.note (Event.Seg Event.Req_done)
        done)
      ()
  in
  match res.Engine.stall with
  | Some { Engine.stall_kind = Engine.Underbudget; _ } -> ()
  | Some s -> Alcotest.failf "expected Underbudget, got %a" Engine.pp_stall s
  | None -> Alcotest.fail "timed-out run left undiagnosed"

let test_deadlock_diagnosis () =
  (* Both processes park on a gate with nobody left to write it. *)
  let res =
    Engine.run ~max_steps:10_000 ~n:2 ~model:Memory.CC ~sched:(Sched.round_robin ())
      ~crash:Crash.none ~setup:gate_setup
      ~body:(fun gate ~pid:_ -> Api.spin_until gate (Api.Eq 1))
      ()
  in
  check cb "deadlocked" true res.Engine.deadlocked;
  match res.Engine.stall with
  | Some { Engine.stall_kind = Engine.Deadlock; culprits } ->
      check (Alcotest.list ci) "both pids blamed" [ 0; 1 ] (List.map fst culprits)
  | Some s -> Alcotest.failf "expected Deadlock, got %a" Engine.pp_stall s
  | None -> Alcotest.fail "deadlocked run left undiagnosed"

(* ------------------------------------------------------------------ *)
(* Repeat offender vs. the registry                                    *)
(* ------------------------------------------------------------------ *)

let offender = Chaos.Offender { victim = 0; gap = 4; times = 3 }

let offender_cfg = { Chaos.default_cfg with Chaos.n = 3; requests = 2; max_steps = 100_000 }

let run_spec key ~adversary ~seed =
  let spec = Rme.Spec.find_exn key in
  Chaos.run_one offender_cfg ~make:spec.Rme.Spec.make ~adversary ~seed

let test_offender_defeats_mcs () =
  (* Plain MCS is not recoverable: killing the victim mid-queue strands
     its node and the watchdog reports the wreckage (deadlock: everyone
     parked on the orphaned queue), not a bare timeout. *)
  let r = run_spec "mcs" ~adversary:offender ~seed:1 in
  check cb "crashes were injected" true (r.Chaos.res.Engine.total_crashes > 0);
  match r.Chaos.res.Engine.stall with
  | Some { Engine.stall_kind = Engine.Deadlock | Engine.Livelock | Engine.Starvation; culprits }
    ->
      check cb "culprits named" true (culprits <> [])
  | Some { Engine.stall_kind = Engine.Underbudget; _ } ->
      Alcotest.fail "mcs wreckage misdiagnosed as a budget problem"
  | None -> Alcotest.fail "mcs survived failures during recovery (it must not)"

let test_offender_spares_recoverable () =
  List.iter
    (fun key ->
      let r = run_spec key ~adversary:offender ~seed:1 in
      check ci (key ^ " absorbed all crashes") 3 r.Chaos.res.Engine.total_crashes;
      check cb (key ^ " no stall") true (r.Chaos.res.Engine.stall = None);
      check cb
        (key ^ " all requests satisfied")
        true
        (Props.all_satisfied r.Chaos.res ~n:offender_cfg.Chaos.n
           ~requests:offender_cfg.Chaos.requests))
    [ "sa-jjj"; "ba-jjj" ]

(* ------------------------------------------------------------------ *)
(* Adaptivity-contract monitors                                        *)
(* ------------------------------------------------------------------ *)

let clean_ba_run () =
  let spec = Rme.Spec.find_exn "ba-jjj" in
  let r =
    Chaos.run_one
      { Chaos.default_cfg with Chaos.n = 2; requests = 1 }
      ~make:spec.Rme.Spec.make
      ~adversary:(Chaos.Storm { rate = 0.0; max_crashes = 0; gap = 0; backoff = 1.0 })
      ~seed:0
  in
  r.Chaos.res

let test_monitor_trips_on_fake_history () =
  let res = clean_ba_run () in
  check cb "baseline clean" true (Props.super_adaptivity res = None);
  (* Forge a history that claims level 5 with zero crashes: Theorem 5.17
     prices that at >= 10 failures, so the monitor must trip. *)
  let faked =
    {
      res with
      Engine.procs =
        Array.mapi
          (fun i (p : Engine.proc_stats) ->
            if i = 0 then { p with Engine.max_level = 5 } else p)
          res.Engine.procs;
    }
  in
  match Props.super_adaptivity faked with
  | Some msg -> check cb "cites the bound" true (has_sub ~sub:">= 10" msg)
  | None -> Alcotest.fail "max_level 5 with 0 crashes must violate Theorem 5.17"

let test_failure_free_rmr () =
  let res = clean_ba_run () in
  check ci "crash-free baseline" 0 res.Engine.total_crashes;
  check cb "generous bound holds" true (Props.failure_free_rmr res ~bound:1_000 = None);
  check cb "zero bound trips" true (Props.failure_free_rmr res ~bound:0 <> None);
  (* With crashes in the history the contract is vacuous by design. *)
  let spec = Rme.Spec.find_exn "ba-jjj" in
  let crashed =
    Chaos.run_one offender_cfg ~make:spec.Rme.Spec.make ~adversary:offender ~seed:1
  in
  check cb "crashed history vacuous" true
    (crashed.Chaos.res.Engine.total_crashes > 0
    && Props.failure_free_rmr crashed.Chaos.res ~bound:0 = None)

let ba_case =
  let spec = Rme.Spec.find_exn "ba-jjj" in
  {
    Chaos.case_name = "ba-jjj";
    case_make = spec.Rme.Spec.make;
    case_weak = false;
    case_ff_bound = None;
    case_abortable = false;
  }

let test_theorem_5_17_over_1000_runs () =
  (* The acceptance bar: the Theorem 5.17 monitor (wired into the campaign
     battery) holds for BA-Lock across >= 1000 seeded adversarial runs,
     at both a shallow (n=4, 2 levels) and a deeper (n=8, 3 levels)
     tournament. *)
  let shallow =
    Chaos.campaign
      ~cfg:{ Chaos.default_cfg with Chaos.requests = 2 }
      ~jobs:4 ~adversaries:Chaos.standard_adversaries ~runs:160 ~seed_base:0 [ ba_case ]
  in
  let deep =
    Chaos.campaign
      ~cfg:{ Chaos.default_cfg with Chaos.n = 8; requests = 2 }
      ~jobs:4 ~adversaries:Chaos.standard_adversaries ~runs:100 ~seed_base:0 [ ba_case ]
  in
  check cb "at least 1000 runs" true (shallow.Chaos.runs + deep.Chaos.runs >= 1_000);
  check cb "adversaries actually fired" true (shallow.Chaos.crashes + deep.Chaos.crashes > 1_000);
  check (Alcotest.list Alcotest.string) "no violations (incl. Theorem 5.17)" []
    (List.map
       (fun v -> Fmt.str "%a" Chaos.pp_violation v)
       (shallow.Chaos.violations @ deep.Chaos.violations));
  (* Non-vacuity: the window adversary really does drive escalation, so
     the monitor judged genuinely adaptive histories above. *)
  let spec = Rme.Spec.find_exn "ba-jjj" in
  let escalated = ref false in
  for seed = 0 to 29 do
    let r =
      Chaos.run_one
        { Chaos.default_cfg with Chaos.n = 8; requests = 2 }
        ~make:spec.Rme.Spec.make
        ~adversary:(Chaos.Window { rate = 0.25; max_crashes = 4 })
        ~seed
    in
    let x =
      Array.fold_left (fun a (p : Engine.proc_stats) -> max a p.max_level) 0 r.Chaos.res.Engine.procs
    in
    if x >= 2 then escalated := true
  done;
  check cb "window adversary drives level >= 2" true !escalated

(* ------------------------------------------------------------------ *)
(* WR FAS gap: random discovery -> deterministic witness               *)
(* ------------------------------------------------------------------ *)

let wr_cfg = { Chaos.default_cfg with Chaos.n = 3; requests = 2; cs_yields = 4 }

let wr_make = (Rme.Spec.find_exn "wr").Rme.Spec.make

let me_check (res : Engine.result) = if res.Engine.cs_max > 1 then Some "ME overlap" else None

let test_holder_rediscovers_wr_fas_gap () =
  (* Hunt: the holder-targeting adversary, random schedules, seeds 0.. —
     no knowledge of the FAS window beyond "kill people near the lock". *)
  let adversary = Chaos.Holder { rate = 0.05; max_crashes = 8 } in
  let rec hunt seed =
    if seed > 500 then Alcotest.fail "holder adversary found no ME overlap in 500 seeds"
    else
      let r = Chaos.run_one wr_cfg ~make:wr_make ~adversary ~seed in
      if r.Chaos.res.Engine.cs_max > 1 then (seed, r) else hunt (seed + 1)
  in
  let _seed, r = hunt 0 in
  (* Theorem 4.2 says this overlap can only come from an unsafe failure:
     the adversary must have hit the FAS gap to get here. *)
  check cb "an unsafe (FAS-gap) crash was fired" true
    ((r.Chaos.res.Engine.locks.(0)).Engine.unsafe_crashes > 0);
  (* Bridge 1: the recorded schedule + the fired crashes as a fixed at-op
     composite replay the very same violation, faithfully. *)
  let decisions = Vec.to_array r.Chaos.decisions in
  let replayed, mismatch = Chaos.replay wr_cfg ~make:wr_make ~fired:r.Chaos.fired ~decisions () in
  check cb "replay faithful" false mismatch;
  check cb "replay violates ME" true (replayed.Engine.cs_max > 1);
  check ci "replay injects the same crashes" r.Chaos.res.Engine.total_crashes
    replayed.Engine.total_crashes;
  (* Bridge 2: the explorer's shrinker minimises the schedule witness and
     the minimum still replays the violation. *)
  let witness =
    Chaos.shrink_witness wr_cfg ~make:wr_make ~fired:r.Chaos.fired ~check:me_check decisions
  in
  check cb "witness no longer than the discovery" true
    (Array.length witness <= Array.length decisions);
  let wres, wmis = Chaos.replay wr_cfg ~make:wr_make ~fired:r.Chaos.fired ~decisions:witness () in
  check cb "witness faithful" false wmis;
  check cb "witness violates ME" true (wres.Engine.cs_max > 1)

let test_campaign_reports_wr_overlap () =
  (* End-to-end through Chaos.campaign: driving WR as a plain (non-weak)
     case makes the overlap a mutual-exclusion violation the campaign must
     catch, replay-confirm and shrink on its own. *)
  let case =
    {
      Chaos.case_name = "wr-as-strong";
      case_make = wr_make;
      case_weak = false;
      case_ff_bound = None;
      case_abortable = false;
    }
  in
  let o =
    Chaos.campaign ~cfg:wr_cfg
      ~adversaries:[ Chaos.Holder { rate = 0.05; max_crashes = 8 } ]
      ~runs:50 ~seed_base:0 [ case ]
  in
  match o.Chaos.violations with
  | [] -> Alcotest.fail "campaign missed the WR overlap in 50 holder runs"
  | v :: _ ->
      check cb "flags mutual exclusion" true
        (match v.Chaos.v_problems with
        | p :: _ -> has_prefix ~prefix:"mutual-exclusion" p
        | [] -> false);
      check cb "replay confirmed" true v.Chaos.v_replay_ok;
      check cb "witness shrunk below discovery" true
        (Array.length v.Chaos.v_witness < List.length v.Chaos.v_fired * 200);
      check cb "fired sites recorded" true (v.Chaos.v_fired <> []);
      check cb "detection latency recorded" true (v.Chaos.v_detect_steps > 0)

let test_campaign_weak_wr_clean () =
  (* The same adversary against WR checked the honest way (weak interval
     ME): Theorem 4.2 says the overlap stays within the consequence
     envelope, so the campaign must stay clean. *)
  let case =
    {
      Chaos.case_name = "wr";
      case_make = wr_make;
      case_weak = true;
      case_ff_bound = None;
      case_abortable = false;
    }
  in
  let o =
    Chaos.campaign ~cfg:wr_cfg
      ~adversaries:[ Chaos.Holder { rate = 0.05; max_crashes = 8 } ]
      ~runs:50 ~seed_base:0 [ case ]
  in
  check (Alcotest.list Alcotest.string) "no violations" []
    (List.map (fun v -> Fmt.str "%a" Chaos.pp_violation v) o.Chaos.violations)

(* ------------------------------------------------------------------ *)
(* One construction per search, replay and violation                   *)
(* ------------------------------------------------------------------ *)

(* [make] wrapped to count its calls. *)
let counting make =
  let calls = ref 0 in
  (calls, fun ctx -> incr calls; make ctx)

let test_one_setup_per_subject () =
  (* An explorer search that finds an overlap and shrinks it. *)
  let calls, setup = counting (fun _ -> ()) in
  let o =
    Rme_check.Explore.explore ~n:2 ~model:Memory.CC ~crash:(fun () -> Crash.none) ~setup
      ~body:(fun () ~pid:_ ->
        Api.note (Event.Seg Event.Cs_begin);
        Api.yield ();
        Api.note (Event.Seg Event.Cs_end))
      ~check:(fun r -> if r.Engine.cs_max > 1 then Some "overlap" else None)
      ()
  in
  check cb "the search finds the overlap" true (o.Rme_check.Explore.violation <> None);
  check ci "one setup per search, shrink included" 1 !calls;
  (* Replays on one arena. *)
  let calls, setup = counting wr_make in
  let arena =
    Engine.arena ~n:2 ~model:Memory.CC ~setup
      ~body:(fun lock ~pid -> Harness.standard_body ~lock ~requests:1 pid)
  in
  for _ = 1 to 3 do
    let r, diverged = Rme_check.Explore.replay ~arena ~decisions:[| 1; 0; 1 |] ~crash:Crash.none () in
    check cb "replay faithful" true (diverged = None);
    check ci "replay completes" 2 (Engine.total_completed r)
  done;
  check ci "one setup for the arena, none per replay" 1 !calls;
  (* A campaign run that violates: its confirm replay and every shrink
     candidate rewind the run's own arena. *)
  let adversary = Chaos.Holder { rate = 0.05; max_crashes = 8 } in
  let rec hunt seed =
    let r = Chaos.run_one wr_cfg ~make:wr_make ~adversary ~seed in
    if r.Chaos.res.Engine.cs_max > 1 then seed else hunt (seed + 1)
  in
  let seed = hunt 0 in
  let calls, case_make = counting wr_make in
  let case =
    {
      Chaos.case_name = "wr-as-strong";
      case_make;
      case_weak = false;
      case_ff_bound = None;
      case_abortable = false;
    }
  in
  let o = Chaos.campaign ~cfg:wr_cfg ~adversaries:[ adversary ] ~runs:1 ~seed_base:seed [ case ] in
  (match o.Chaos.violations with
  | [ v ] ->
      check cb "replay confirmed" true v.Chaos.v_replay_ok;
      check cb "witness shrunk" true (v.Chaos.v_witness <> [||])
  | _ -> Alcotest.fail "the hunted seed must violate");
  check ci "one setup for the run and its confirm and shrink" 1 !calls

let ba_jjj_make = (Rme.Spec.find_exn "ba-jjj").Rme.Spec.make

let holder = Chaos.Holder { rate = 0.05; max_crashes = 8 }

let test_one_setup_per_campaign () =
  (* The seeds of one (case, adversary) pair share one arena. *)
  let calls, case_make = counting ba_jjj_make in
  let case = { (Rme.Spec.chaos_case (Rme.Spec.find_exn "ba-jjj")) with Chaos.case_make } in
  let o = Chaos.campaign ~jobs:1 ~adversaries:[ holder ] ~runs:20 ~seed_base:0 [ case ] in
  check ci "runs" 20 o.Chaos.runs;
  check ci "one setup for 20 runs" 1 !calls

let test_warm_run_words () =
  (* A warm run skips the construction a cold one pays: Engine.arena alone
     costs about 2,977 minor words for ba-jjj at n = 4. *)
  let words f =
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (f ()));
    Gc.minor_words () -. before
  in
  let run make () = Chaos.run_one Chaos.default_cfg ~make ~adversary:holder ~seed:5 in
  ignore (run ba_jjj_make ());
  let make ctx = ba_jjj_make ctx in
  let cold = words (run make) in
  let warm = words (run make) in
  check cb
    (Printf.sprintf "warm %.0f words, cold %.0f: at least 2,500 fewer" warm cold)
    true
    (cold -. warm >= 2500.0)

let test_recording_scheduler_roundtrip () =
  (* A run under Sched.recording replays step-for-step under Sched.trace. *)
  let r =
    Chaos.run_one wr_cfg ~make:wr_make
      ~adversary:(Chaos.Storm { rate = 0.002; max_crashes = 3; gap = 50; backoff = 1.0 })
      ~seed:42
  in
  let replayed, mismatch =
    Chaos.replay wr_cfg ~make:wr_make ~fired:r.Chaos.fired
      ~decisions:(Vec.to_array r.Chaos.decisions) ()
  in
  check cb "faithful" false mismatch;
  check ci "same steps" r.Chaos.res.Engine.steps replayed.Engine.steps;
  check ci "same rmr" r.Chaos.res.Engine.total_rmr replayed.Engine.total_rmr;
  check ci "same crashes" r.Chaos.res.Engine.total_crashes replayed.Engine.total_crashes;
  check ci "same completed" (Engine.total_completed r.Chaos.res) (Engine.total_completed replayed)

(* ------------------------------------------------------------------ *)
(* The oblivious arm                                                   *)
(* ------------------------------------------------------------------ *)

let mcs_case = Rme.Spec.chaos_case (Rme.Spec.find_exn "mcs")

let test_oblivious_is_the_workload_run () =
  (* An oblivious seed names the run Rme.Workload.run makes of the drawn
     configuration: Sched.random ~seed, the scenario's plans with the crash
     seed offset by 7919, the drawn CS and NCS lengths. *)
  List.iter
    (fun (key, seed) ->
      let spec = Rme.Spec.find_exn key in
      let r =
        Chaos.run_one Chaos.default_cfg ~make:spec.Rme.Spec.make ~adversary:(Chaos.Oblivious None)
          ~seed
      in
      let cfg = r.Chaos.cfg in
      let scenario =
        match r.Chaos.adversary with
        | Chaos.Oblivious (Some sc) -> sc
        | _ -> Alcotest.fail "an oblivious run names its drawn scenario"
      in
      let res =
        Rme.Workload.run spec
          {
            Rme.Workload.n = cfg.Chaos.n;
            model = cfg.Chaos.model;
            requests = cfg.Chaos.requests;
            seed;
            scenario;
            record = true;
            cs_yields = cfg.Chaos.cs_yields;
            ncs_yields = cfg.Chaos.ncs_yields;
            max_steps = cfg.Chaos.max_steps;
          }
      in
      let label = Printf.sprintf "%s seed %d" key seed in
      check ci (label ^ " steps") res.Engine.steps r.Chaos.res.Engine.steps;
      check ci (label ^ " rmr") res.Engine.total_rmr r.Chaos.res.Engine.total_rmr;
      check ci (label ^ " crashes") res.Engine.total_crashes r.Chaos.res.Engine.total_crashes;
      check ci (label ^ " aborts") (List.length res.Engine.aborts)
        (List.length r.Chaos.res.Engine.aborts))
    (List.concat_map
       (fun key -> List.init 12 (fun seed -> (key, seed)))
       [ "wr"; "wr-abort"; "ba-jjj"; "jjj-sys" ])

let test_oblivious_planted_mcs () =
  (* Plain MCS is not crash-safe: under a forced storm:3 the oblivious arm
     finds it starving on 16 of 20 seeds, each confirmed on replay and
     shrunk. *)
  let storm = Chaos.Oblivious (Some (Chaos.Random_storm { crashes = 3; rate = 0.01 })) in
  let o = Chaos.campaign ~adversaries:[ storm ] ~runs:20 ~seed_base:0 [ mcs_case ] in
  check ci "runs" 20 o.Chaos.runs;
  check ci "engine steps" 5198 o.Chaos.steps;
  check
    Alcotest.(list int)
    "violating seeds"
    [ 0; 1; 3; 4; 5; 7; 8; 9; 10; 11; 13; 15; 16; 17; 18; 19 ]
    (List.map (fun v -> v.Chaos.v_seed) o.Chaos.violations);
  List.iter
    (fun (v : Chaos.violation) ->
      let label = Printf.sprintf "seed %d" v.v_seed in
      check cb (label ^ " starvation freedom") true
        (List.for_all (has_prefix ~prefix:"starvation-freedom") v.v_problems);
      check cb (label ^ " replay confirmed") true v.v_replay_ok;
      let r =
        Chaos.run_one Chaos.default_cfg ~make:mcs_case.Chaos.case_make ~adversary:storm
          ~seed:v.v_seed
      in
      check cb (label ^ " witness no longer than the schedule") true
        (Array.length v.v_witness <= Vec.length r.Chaos.decisions))
    o.Chaos.violations

(* ------------------------------------------------------------------ *)
(* Replay from the engine's logs                                       *)
(* ------------------------------------------------------------------ *)

let forced s = Chaos.Oblivious (Some (Option.get (Chaos.scenario_of_string s)))

(* The fields of [a] that differ in [b].  The record pattern names every
   field, so a new one must be compared here too. *)
let result_diffs (a : Engine.result) (b : Engine.result) =
  let {
    Engine.steps;
    total_rmr;
    rmr_by_kind;
    total_crashes;
    system_crashes;
    procs;
    locks;
    cs_max;
    deadlocked;
    timed_out;
    stall;
    aborts;
    crash_log;
    monitors;
    events;
  } =
    a
  in
  List.filter_map
    (fun (field, same) -> if same then None else Some field)
    [
      ("steps", steps = b.steps);
      ("total_rmr", total_rmr = b.total_rmr);
      ("rmr_by_kind", rmr_by_kind = b.rmr_by_kind);
      ("total_crashes", total_crashes = b.total_crashes);
      ("system_crashes", system_crashes = b.system_crashes);
      ("procs", procs = b.procs);
      ("locks", locks = b.locks);
      ("cs_max", cs_max = b.cs_max);
      ("deadlocked", deadlocked = b.deadlocked);
      ("timed_out", timed_out = b.timed_out);
      ("stall", stall = b.stall);
      ("aborts", aborts = b.aborts);
      ("crash_log", crash_log = b.crash_log);
      ("monitors", monitors = b.monitors);
      ("events", events = b.events);
    ]

(* Replays [r] from its decisions and the two logs: the replay must be
   faithful, reproduce every field of the result but the history it
   records, and log the same failures; the reference scans of that
   history must give the verdicts of [r]'s monitors. *)
let check_replay label ~make (r : Chaos.run) =
  let res, diverged =
    Chaos.replay r.cfg ~make ~fired:r.fired ~ab_fired:r.ab_fired
      ~decisions:(Vec.to_array r.decisions) ()
  in
  check cb (label ^ " faithful") false diverged;
  check cb (label ^ " run keeps no history") true (r.res.Engine.events = []);
  check Alcotest.(list string) (label ^ " differing fields") []
    (result_diffs r.res { res with Engine.events = [] });
  History_oracle.agree label r.res res.Engine.events;
  check cb (label ^ " same crash log") true (res.Engine.crash_log = r.fired);
  check cb (label ^ " same abort log") true (Engine.abort_log res = r.ab_fired)

let test_replay_from_logs () =
  let adversaries =
    Chaos.standard_adversaries
    @ [
        Chaos.default_sys_storm;
        Chaos.default_impatient_storm;
        forced "batch:4";
        forced "impatient:40:3:2";
      ]
  in
  let crash_runs = ref 0 and abort_runs = ref 0 in
  List.iter
    (fun key ->
      let make = (Rme.Spec.find_exn key).Rme.Spec.make in
      List.iter
        (fun adversary ->
          for seed = 0 to 19 do
            let r = Chaos.run_one Chaos.default_cfg ~make ~adversary ~seed in
            let label = Fmt.str "%s %a seed %d" key Chaos.pp_adversary r.adversary seed in
            check ci (label ^ " one entry per delivered signal") (List.length r.res.Engine.aborts)
              (List.length r.ab_fired);
            if r.fired <> [] then incr crash_runs;
            if r.ab_fired <> [] then incr abort_runs;
            check_replay label ~make r
          done)
        adversaries)
    [ "wr"; "wr-abort"; "ba-jjj"; "jjj-sys" ];
  check cb "some runs logged crashes" true (!crash_runs > 0);
  check cb "some runs logged aborts" true (!abort_runs > 0)

(* ------------------------------------------------------------------ *)
(* Arena reuse: a rewound slot arena runs what a fresh one does         *)
(* ------------------------------------------------------------------ *)

(* [Chaos.run_one] as a fresh [Engine.run] per run: the recorded
   [Sched.random ~seed], the adversary's plans and the Algorithm-1 body. *)
let fresh_run_one cfg ~make ~adversary ~seed =
  let cfg, adversary = Chaos.setup cfg adversary ~seed in
  let decisions = Vec.create () in
  let cs = Harness.yields cfg.Chaos.cs_yields in
  let ncs = if cfg.Chaos.ncs_yields = 0 then None else Some (Harness.yields cfg.Chaos.ncs_yields) in
  let res =
    Engine.run ~max_steps:cfg.Chaos.max_steps ~n:cfg.Chaos.n ~model:cfg.Chaos.model
      ~sched:(Sched.recording ~inner:(Sched.random ~seed) ~decisions)
      ~crash:(Chaos.plan adversary ~seed) ~abort:(Chaos.abort_plan adversary ~seed) ~setup:make
      ~body:(fun lock ~pid -> Harness.standard_body ~cs ?ncs ~lock ~requests:cfg.Chaos.requests pid)
      ()
  in
  {
    Chaos.cfg;
    adversary;
    res;
    fired = res.Engine.crash_log;
    ab_fired = Engine.abort_log res;
    decisions;
  }

let test_arena_reuse () =
  (* Every subject runs seeds 0-9 of an adversary, then the next subject
     does; then seeds 10-19 the same way.  Each block's first run misses
     the slot and builds an arena, its other runs hit it (the oblivious
     arm draws a configuration per seed, so its runs mostly miss). *)
  let keys =
    [ "wr"; "ba-jjj"; "dm-jjj"; "jjj-sys"; "wr-abort"; "tas-abort"; "wr-reclaim"; "mcs"; "clh" ]
  in
  let adversaries =
    Chaos.standard_adversaries
    @ [ Chaos.default_sys_storm; Chaos.default_impatient_storm; Chaos.Oblivious None ]
  in
  List.iter
    (fun adversary ->
      List.iter
        (fun seeds ->
          List.iter
            (fun key ->
              let make = (Rme.Spec.find_exn key).Rme.Spec.make in
              List.iter
                (fun seed ->
                  let r = Chaos.run_one Chaos.default_cfg ~make ~adversary ~seed in
                  let f = fresh_run_one Chaos.default_cfg ~make ~adversary ~seed in
                  let label = Fmt.str "%s %a seed %d" key Chaos.pp_adversary r.adversary seed in
                  check Alcotest.(list string) (label ^ " differing fields") []
                    (result_diffs f.res r.res);
                  check cb (label ^ " fired") true (r.fired = f.fired);
                  check cb (label ^ " ab_fired") true (r.ab_fired = f.ab_fired);
                  check cb (label ^ " decisions") true
                    (Vec.to_array r.decisions = Vec.to_array f.decisions))
                seeds)
            keys)
        [ List.init 10 Fun.id; List.init 10 (fun i -> 10 + i) ])
    adversaries

(* An impatient waiter is re-signalled on every step until its signal
   resolves; the engine ignores all but the first, and only that one is
   logged. *)
let test_impatient_logs_deliveries () =
  let spec = Rme.Spec.find_exn "wr-abort" in
  let adversary = forced "impatient:40:3:2" in
  let r = Chaos.run_one Chaos.default_cfg ~make:spec.Rme.Spec.make ~adversary ~seed:3 in
  check ci "seed 3 logs its 37 delivered signals" 37 (List.length r.ab_fired);
  check_replay "seed 3" ~make:spec.Rme.Spec.make r;
  let o =
    Chaos.campaign ~adversaries:[ adversary ] ~runs:100 ~seed_base:0 [ Rme.Spec.chaos_case spec ]
  in
  check ci "signals delivered over seeds 0-99" 4806 o.Chaos.aborts;
  check ci "no violations" 0 (List.length o.Chaos.violations)

let () =
  Alcotest.run "chaos"
    [
      ( "adversaries",
        [
          Alcotest.test_case "holder tracks the lock span" `Quick test_target_holder_span;
          Alcotest.test_case "holder honours the lock filter" `Quick test_target_holder_lock_filter;
          Alcotest.test_case "window strikes only open windows" `Quick test_target_window;
          Alcotest.test_case "repeat offender cadence" `Quick test_repeat_offender_cadence;
          Alcotest.test_case "storm gap and backoff" `Quick test_storm_gap_backoff;
          Alcotest.test_case "storm validates backoff" `Quick test_storm_validation;
          Alcotest.test_case "crash log / replay_fired" `Quick test_crash_log_and_replay_fired;
          Alcotest.test_case "crash log copies the reused op_info" `Quick
            test_crash_log_copies_reused_info;
          Alcotest.test_case "crash log logs every async pid" `Quick test_crash_log_every_async_pid;
          Alcotest.test_case "adversary parsing" `Quick test_adversary_of_string;
        ] );
      ( "watchdog",
        [
          Alcotest.test_case "planted livelock classified" `Quick test_planted_livelock;
          Alcotest.test_case "planted starvation classified" `Quick test_planted_starvation;
          Alcotest.test_case "underbudget not miscalled" `Quick test_underbudget_diagnosis;
          Alcotest.test_case "deadlock diagnosed with culprits" `Quick test_deadlock_diagnosis;
        ] );
      ( "offender",
        [
          Alcotest.test_case "defeats non-recoverable mcs" `Quick test_offender_defeats_mcs;
          Alcotest.test_case "sa/ba absorb the pulse train" `Quick test_offender_spares_recoverable;
        ] );
      ( "monitors",
        [
          Alcotest.test_case "fake history trips Theorem 5.17" `Quick
            test_monitor_trips_on_fake_history;
          Alcotest.test_case "failure-free RMR contract" `Quick test_failure_free_rmr;
          Alcotest.test_case "Theorem 5.17 over 1000 adversarial runs" `Slow
            test_theorem_5_17_over_1000_runs;
        ] );
      ( "fas-gap bridge",
        [
          Alcotest.test_case "recording scheduler roundtrip" `Quick
            test_recording_scheduler_roundtrip;
          Alcotest.test_case "holder rediscovers the WR FAS gap" `Slow
            test_holder_rediscovers_wr_fas_gap;
          Alcotest.test_case "campaign replays and shrinks it" `Slow
            test_campaign_reports_wr_overlap;
          Alcotest.test_case "weak interval form stays clean" `Slow test_campaign_weak_wr_clean;
        ] );
      ( "construction",
        [
          Alcotest.test_case "one setup per subject" `Quick test_one_setup_per_subject;
          Alcotest.test_case "one setup per campaign" `Quick test_one_setup_per_campaign;
          Alcotest.test_case "a warm run skips construction" `Quick test_warm_run_words;
        ] );
      ( "oblivious",
        [
          Alcotest.test_case "a seed names the workload run" `Quick
            test_oblivious_is_the_workload_run;
          Alcotest.test_case "planted mcs starvation" `Quick test_oblivious_planted_mcs;
        ] );
      ( "log replay",
        [
          Alcotest.test_case "replay from the logs is exact" `Quick test_replay_from_logs;
          Alcotest.test_case "impatient logs only deliveries" `Quick test_impatient_logs_deliveries;
        ] );
      ( "arena reuse",
        [ Alcotest.test_case "rewound runs equal fresh ones" `Quick test_arena_reuse ] );
    ]
