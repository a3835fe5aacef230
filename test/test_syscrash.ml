(* System-wide crash model: engine semantics, the JJJ/DM locks, and the
   record/replay closure over asynchronous and system crashes.

   The model under test is Jayanti-Jayanti-Joshi (arXiv 2302.00748): at one
   engine step every process loses its continuation while NVRAM persists,
   and every live process restarts through its recovery section. *)

open Rme_sim
open Rme_locks
open Rme_check

let check = Alcotest.check

let ci = Alcotest.int

let cb = Alcotest.bool

let run_jjj ?(n = 3) ?(requests = 2) ?record ~crash () =
  Harness.run_lock ?record ~n ~model:Memory.CC ~sched:(Sched.round_robin ()) ~crash ~requests
    ~make:Jjj_sys.make ()

(* ------------------------------------------------------------------ *)
(* Engine semantics of a system crash                                  *)
(* ------------------------------------------------------------------ *)

let test_system_crash_erases_everyone () =
  let res = run_jjj ~record:true ~crash:(Crash.system_at ~step:25) () in
  check ci "one system crash" 1 res.Engine.system_crashes;
  (* Every process was struck at once: n per-process crash events at the
     same step as the Sys_crash marker. *)
  let sys_step =
    match
      List.find_opt (function Event.Sys_crash _ -> true | _ -> false) res.Engine.events
    with
    | Some (Event.Sys_crash { step }) -> step
    | _ -> Alcotest.fail "no Sys_crash event recorded"
  in
  let struck =
    List.filter
      (function Event.Crash { step; _ } -> step = sys_step | _ -> false)
      res.Engine.events
  in
  check ci "all three processes struck" 3 (List.length struck);
  check ci "total crashes = n" 3 res.Engine.total_crashes;
  (* NVRAM persisted and recovery worked: everyone still satisfied every
     request, one holder at a time. *)
  check cb "no deadlock" false res.Engine.deadlocked;
  check cb "no timeout" false res.Engine.timed_out;
  check ci "all requests satisfied" 6 (Engine.total_completed res);
  check ci "mutual exclusion" 1 res.Engine.cs_max

let test_system_crash_reaches_parked () =
  (* p1 parks on a gate p0 never opens before the crash; the system crash
     must discard the parked continuation too (both processes restart). *)
  let res =
    Engine.run ~record:true ~n:2 ~model:Memory.CC ~sched:(Sched.round_robin ())
      ~crash:(Crash.system_at ~step:6)
      ~setup:(fun ctx -> Memory.alloc (Engine.Ctx.memory ctx) ~name:"gate" 0)
      ~body:(fun gate ~pid ->
        if Api.completed_requests () = 0 then begin
          Api.note (Event.Seg Event.Req_begin);
          if pid = 0 then begin
            (* Dawdle long enough that the crash lands while p1 is parked. *)
            for _ = 1 to 8 do
              Api.yield ()
            done;
            Api.write gate 1
          end
          else Api.spin_until gate (Api.Ge 1);
          Api.note (Event.Seg Event.Req_done)
        end)
      ()
  in
  check ci "one system crash" 1 res.Engine.system_crashes;
  check ci "both processes crashed" 2 res.Engine.total_crashes;
  check cb "run completed" false (res.Engine.deadlocked || res.Engine.timed_out)

let test_op_index_continues_across_system_crash () =
  (* op_index is the absolute per-process instruction counter; a system
     crash must not reset it (pinned: at_op coordinates stay meaningful
     across whole-system restarts). *)
  let seen : (int * int) list ref = ref [] in
  let _ =
    Engine.run ~n:2 ~model:Memory.CC ~sched:(Sched.round_robin ())
      ~crash:(Crash.system_at ~step:5)
      ~on_op:(fun info -> seen := (info.Crash.pid, info.Crash.op_index) :: !seen)
      ~setup:(fun ctx -> Memory.alloc (Engine.Ctx.memory ctx) ~name:"c" 0)
      ~body:(fun c ~pid:_ ->
        if Api.completed_requests () = 0 then begin
          Api.note (Event.Seg Event.Req_begin);
          ignore (Api.faa c 1);
          ignore (Api.faa c 1);
          ignore (Api.faa c 1);
          Api.note (Event.Seg Event.Req_done)
        end)
      ()
  in
  let seen = List.rev !seen in
  List.iter
    (fun pid ->
      let indices = List.filter_map (fun (p, i) -> if p = pid then Some i else None) seen in
      List.iteri
        (fun k i -> check ci (Printf.sprintf "p%d op %d consecutive" pid k) k i)
        indices;
      check cb
        (Printf.sprintf "p%d re-executed ops after the crash" pid)
        true
        (List.length indices > 5))
    [ 0; 1 ]

(* ------------------------------------------------------------------ *)
(* JJJ system-crash lock                                               *)
(* ------------------------------------------------------------------ *)

let test_jjj_sys_failure_free () =
  let res = run_jjj ~crash:Crash.none () in
  check cb "clean run" false (res.Engine.deadlocked || res.Engine.timed_out);
  check ci "all satisfied" 6 (Engine.total_completed res);
  check ci "one holder at a time" 1 res.Engine.cs_max

let test_jjj_sys_fcfs_failure_free () =
  let res = run_jjj ~record:true ~crash:Crash.none () in
  (* Ticket order is announce order; under round robin the CS order must
     follow pid order cyclically. *)
  let cs_order =
    List.filter_map
      (function Event.Note { note = Event.Seg Event.Cs_begin; pid; _ } -> Some pid | _ -> None)
      res.Engine.events
  in
  check ci "six CS entries" 6 (List.length cs_order);
  match cs_order with
  | [ a; b; c; a'; b'; c' ] ->
      check cb "first round is a permutation" true (List.sort compare [ a; b; c ] = [ 0; 1; 2 ]);
      check cb "second round repeats ticket order" true ((a, b, c) = (a', b', c'))
  | _ -> Alcotest.fail "unexpected CS order shape"

let test_jjj_sys_survives_system_storms () =
  (* A pulse of system-wide crashes at many different phases: the lock must
     always recover and satisfy every request, exactly one holder at a
     time. *)
  for seed = 0 to 19 do
    let crash = Crash.system_storm ~seed ~rate:0.02 ~max_crashes:3 ~gap:20 () in
    let res =
      Harness.run_lock ~n:3 ~model:Memory.CC ~sched:(Sched.random ~seed:(seed + 100)) ~crash
        ~requests:2 ~make:Jjj_sys.make ~max_steps:50_000 ()
    in
    if res.Engine.deadlocked || res.Engine.timed_out then
      Alcotest.failf "seed %d: stalled (%a)" seed
        Fmt.(option Engine.pp_stall)
        res.Engine.stall;
    check ci (Printf.sprintf "seed %d: all satisfied" seed) 6 (Engine.total_completed res);
    check ci (Printf.sprintf "seed %d: ME" seed) 1 res.Engine.cs_max
  done

let explore_lock ~make ~crash ~max_runs ~n ~requests =
  Explore.explore ~max_runs ~max_steps:4_000 ~n ~model:Memory.CC ~crash
    ~setup:(fun ctx -> make ctx)
    ~body:(fun lock ~pid -> Harness.standard_body ~lock ~requests pid)
    ~check:(fun res ->
      match Props.mutual_exclusion res with
      | Some m -> Some m
      | None -> Props.starvation_freedom res ~requests)
    ()

let test_jjj_sys_explored_under_system_crashes () =
  (* Bounded schedule exploration with a system crash pinned at each early
     step: ME and SF must hold in every explored interleaving.  (System
     plans are POR-[Sensitive], so the reduction is off and the full tree
     is out of reach — this is a bounded search, not an exhaustive one;
     the sweep covers site enumeration.) *)
  List.iter
    (fun step ->
      let out =
        explore_lock ~make:Jjj_sys.make
          ~crash:(fun () -> Crash.system_at ~step)
          ~max_runs:40_000 ~n:2 ~requests:1
      in
      match out.Explore.violation with
      | Some (msg, _) -> Alcotest.failf "system crash at step %d: %s" step msg
      | None -> ())
    [ 0; 3; 7; 12; 20 ]

let test_dm_locks_survive_system_crash () =
  List.iter
    (fun (name, make) ->
      let crash () = Crash.system_at ~step:9 in
      let out = explore_lock ~make ~crash ~max_runs:60_000 ~n:2 ~requests:1 in
      match out.Explore.violation with
      | Some (msg, _) -> Alcotest.failf "%s: %s" name msg
      | None -> ())
    [
      ("dm-jjj", Dm_lock.make_over ~name:"dm-jjj" ~base:Jjj_tree.make);
      ("dm-ba", Dm_lock.make_over ~name:"dm-ba" ~base:Ba_lock.default);
    ]

(* The minimal budget-2 witnesses [conformance -n 2 --requests 2
   --cs-yields 2 --budget 2 --lock jjj-sys,dm-jjj] found against a
   doorway repair that skipped at most one dead ticket per call: two
   doorway crashes lose two tickets in a row, one release skips the
   first, and the waiter behind the second parked on [grant] for good.
   Each replays the witness's all-1 decision vector under its crash plan;
   every request must be served. *)
let witness_run ~make ~crash ~ones =
  let arena =
    Engine.arena ~n:2 ~model:Memory.CC ~setup:make ~body:(fun lock ~pid ->
        Harness.standard_body ~cs:(Harness.yields 2) ~lock ~requests:2 pid)
  in
  fst (Explore.replay ~arena ~decisions:(Array.make ones 1) ~crash ())

let check_witness name res =
  if res.Engine.deadlocked || res.Engine.timed_out then
    Alcotest.failf "%s: stalled (%a)" name Fmt.(option Engine.pp_stall) res.Engine.stall;
  check ci (name ^ ": all satisfied") 4 (Engine.total_completed res);
  check ci (name ^ ": ME") 1 res.Engine.cs_max

let dm_jjj = Dm_lock.make_over ~name:"dm-jjj" ~base:Jjj_tree.make

let test_witness_per_process () =
  let after pid nth = Crash.at_op ~pid ~nth Crash.After in
  (* [after p0#6 faa seq + after p0#16 faa grant] (jjj-sys) and [after p0#6
     faa door.seq + after p0#16 read jjj.l0.n0.state[0]] (dm-jjj): p0's
     sixth instruction is its first FAA on [seq], its sixteenth the FAA of
     its recovered doorway. *)
  check_witness "jjj-sys"
    (witness_run ~make:Jjj_sys.make ~crash:(Crash.all [ after 0 6; after 0 16 ]) ~ones:29);
  check_witness "dm-jjj"
    (witness_run ~make:dm_jjj ~crash:(Crash.all [ after 0 6; after 0 16 ]) ~ones:61)

let test_witness_system ~second ~ones () =
  let crash = Crash.all [ Crash.system_at ~step:8; Crash.system_at ~step:second ] in
  List.iter
    (fun (name, make) -> check_witness name (witness_run ~make ~crash ~ones))
    [ ("jjj-sys", Jjj_sys.make); ("dm-jjj", dm_jjj) ]

(* A deliberately unrecoverable ticket lock: the doorway publishes nothing,
   so a system crash between the FAA and the spin (or while holding) loses
   the ticket forever and wedges the grant counter.  The shape the JJJ
   repair machinery exists to fix. *)
let naive_ticket_make ctx =
  let mem = Engine.Ctx.memory ctx in
  let id = Engine.Ctx.register_lock ctx "naive-ticket" in
  let seq = Memory.alloc mem ~name:"naive.seq" 0 in
  let grant = Memory.alloc mem ~name:"naive.grant" 0 in
  Lock.instrument ~id ~name:"naive-ticket"
    ~acquire:(fun ~pid:_ ->
      let t = Api.faa seq 1 in
      Api.spin_until grant (Api.Eq t))
    ~release:(fun ~pid:_ ->
      let (_ : int) = Api.faa grant 1 in
      ())
    ()

let test_naive_ticket_breaks_under_system_crash () =
  (* Some pinned system-crash step must produce a stall (lost ticket):
     the planted bug the chaos adversary is later required to find. *)
  let broke = ref false in
  let step = ref 0 in
  while (not !broke) && !step < 30 do
    let out =
      explore_lock ~make:naive_ticket_make
        ~crash:(fun () -> Crash.system_at ~step:!step)
        ~max_runs:20_000 ~n:2 ~requests:1
    in
    if out.Explore.violation <> None then broke := true;
    incr step
  done;
  check cb "naive ticket lock wedges under some system crash" true !broke

(* ------------------------------------------------------------------ *)
(* por_class: every constructor, table-driven                          *)
(* ------------------------------------------------------------------ *)

let por = Alcotest.testable (fun ppf -> function
    | Crash.Robust pids -> Fmt.pf ppf "Robust %a" Fmt.(Dump.list int) pids
    | Crash.Sensitive -> Fmt.pf ppf "Sensitive")
    (fun a b ->
      match (a, b) with
      | Crash.Sensitive, Crash.Sensitive -> true
      | Crash.Robust a, Crash.Robust b ->
          List.sort compare a = List.sort compare b
      | _ -> false)

let test_por_class_table () =
  (* One row per constructor: which plans the explorer's partial-order
     reduction may stay on under.  A new constructor must be added here
     (the compiler cannot enforce it, so the table at least documents the
     full set). *)
  let rows =
    [
      ("none", Crash.none, Crash.Robust []);
      ("at_op", Crash.at_op ~pid:1 ~nth:4 Crash.Before, Crash.Robust [ 1 ]);
      ("on_kind", Crash.on_kind ~pid:2 ~kind:Api.Fas ~occurrence:0 Crash.After, Crash.Robust [ 2 ]);
      ("on_cell", Crash.on_cell ~pid:0 ~cell:"x" ~occurrence:1 Crash.Before, Crash.Robust [ 0 ]);
      ( "on_custom_note",
        Crash.on_custom_note ~pid:3 ~tag:"t" ~occurrence:0 Crash.Before,
        Crash.Robust [ 3 ] );
      ( "random (single pid)",
        Crash.random ~seed:0 ~rate:0.1 ~max_crashes:1 ~pids:[ 2 ] (),
        Crash.Robust [ 2 ] );
      ( "random (two pids)",
        Crash.random ~seed:0 ~rate:0.1 ~max_crashes:1 ~pids:[ 0; 1 ] (),
        Crash.Sensitive );
      ("random (all pids)", Crash.random ~seed:0 ~rate:0.1 ~max_crashes:1 (), Crash.Sensitive);
      ("fas_gap", Crash.fas_gap ~seed:0 ~rate:0.1 ~max_crashes:1 (), Crash.Sensitive);
      ("async_at", Crash.async_at [ (5, 0) ], Crash.Sensitive);
      ("batch", Crash.batch ~step:5 ~pids:[ 0; 1 ], Crash.Sensitive);
      ( "every_nth_passage",
        Crash.every_nth_passage ~pid:1 ~period:2 ~max_crashes:3,
        Crash.Robust [ 1 ] );
      ( "target_holder",
        Crash.target_holder ~seed:0 ~rate:0.1 ~max_crashes:1 (),
        Crash.Sensitive );
      ( "target_window",
        Crash.target_window ~seed:0 ~rate:0.1 ~max_crashes:1 (),
        Crash.Sensitive );
      ("repeat_offender", Crash.repeat_offender ~victim:2 ~gap:3 ~times:2, Crash.Robust [ 2 ]);
      ("storm", Crash.storm ~seed:0 ~rate:0.1 ~max_crashes:1 ~gap:5 (), Crash.Sensitive);
      ("system_at", Crash.system_at ~step:5, Crash.Sensitive);
      ("system_random", Crash.system_random ~seed:0 ~rate:0.1 ~max_crashes:1 (), Crash.Sensitive);
      ( "system_storm",
        Crash.system_storm ~seed:0 ~rate:0.1 ~max_crashes:1 ~gap:5 (),
        Crash.Sensitive );
      (* Unions: robust members merge victim sets; any sensitive member
         poisons the union. *)
      ( "all (robust union)",
        Crash.all [ Crash.at_op ~pid:0 ~nth:1 Crash.Before; Crash.at_op ~pid:2 ~nth:3 Crash.After ],
        Crash.Robust [ 0; 2 ] );
      ( "all (sensitive poisons)",
        Crash.all [ Crash.at_op ~pid:0 ~nth:1 Crash.Before; Crash.system_at ~step:2 ],
        Crash.Sensitive );
      ("all (empty)", Crash.all [], Crash.Robust []);
      (* The replay composite: per-op records stay robust, any async or
         system record makes it sensitive. *)
      ( "replay_fired (ops only)",
        Crash.replay_fired
          [ { Crash.f_pid = 1; f_op_index = 3; f_step = 9; f_point = Crash.After; f_async = false } ],
        Crash.Robust [ 1 ] );
      ( "replay_fired (system)",
        Crash.replay_fired
          [ { Crash.f_pid = -1; f_op_index = -1; f_step = 9; f_point = Crash.Before; f_async = true } ],
        Crash.Sensitive );
    ]
  in
  List.iter (fun (name, plan, expected) -> check por name expected (Crash.por_class plan)) rows;
  (* The abort axis classifies through the same core. *)
  let abort_rows =
    [
      ("abort none", Abort.none, Crash.Robust []);
      ("abort at_op", Abort.at_op ~pid:1 ~nth:4, Crash.Robust [ 1 ]);
      ( "abort random (single pid)",
        Abort.random ~seed:0 ~rate:0.1 ~max_aborts:1 ~pids:[ 2 ] (),
        Crash.Robust [ 2 ] );
      ( "abort random (two pids)",
        Abort.random ~seed:0 ~rate:0.1 ~max_aborts:1 ~pids:[ 0; 1 ] (),
        Crash.Sensitive );
      ("abort storm", Abort.storm ~seed:0 ~rate:0.1 ~max_aborts:1 ~gap:5 (), Crash.Sensitive);
      ("abort impatient", Abort.impatient ~timeout_steps:10 (), Crash.Sensitive);
      ("abort async_at", Abort.async_at [ (5, 0) ], Crash.Sensitive);
      ( "abort all (robust union)",
        Abort.all
          [ Abort.at_op ~pid:0 ~nth:1; Abort.random ~seed:0 ~rate:0.1 ~max_aborts:1 ~pids:[ 3 ] () ],
        Crash.Robust [ 0; 3 ] );
      ( "abort all (sensitive poisons)",
        Abort.all [ Abort.at_op ~pid:0 ~nth:1; Abort.impatient ~timeout_steps:10 () ],
        Crash.Sensitive );
      ("abort all (empty)", Abort.all [], Crash.Robust []);
    ]
  in
  List.iter (fun (name, plan, expected) -> check por name expected (Abort.por_class plan)) abort_rows

(* ------------------------------------------------------------------ *)
(* The shared gate: cooldown and backoff on all three storms           *)
(* ------------------------------------------------------------------ *)

let op_info ?(pid = 0) ?(step = 0) ?(op_index = 0) ?(kind = Api.Read) () =
  { Crash.pid; step; op_index; kind; cell = None; note = None; unsafe_wrt = [] }

let is_crash = function Crash.Crash _ -> true | Crash.No_crash -> false

(* pid 0 always waiting, so every firing of the abort storm names a victim. *)
let waiting_view = { Abort.n = 1; waiting = (fun _ -> 100); streak = (fun _ -> 0) }

(* Each storm at rate 1 with gap 10 and a budget of 3, as a "does it fire
   at this step" probe; all three go through the one gate. *)
let crash_storm backoff =
  let plan = Crash.storm ~seed:0 ~rate:1.0 ~max_crashes:3 ~gap:10 ?backoff () in
  fun step -> is_crash (Crash.on_op plan (op_info ~step ()))

let system_storm backoff =
  let plan = Crash.system_storm ~seed:0 ~rate:1.0 ~max_crashes:3 ~gap:10 ?backoff () in
  fun step -> Crash.system plan ~step

let abort_storm backoff =
  let plan = Abort.storm ~seed:0 ~rate:1.0 ~max_aborts:3 ~gap:10 ?backoff () in
  fun step -> Abort.async plan ~step waiting_view = [ 0 ]

(* backoff = 1.0 (the default) keeps the cooldown gap constant: firings at
   steps 0, gap, 2*gap, ... *)
let check_constant_gap name make =
  let at = make None in
  let check_at step expected what = check cb (name ^ ": " ^ what) expected (at step) in
  check_at 0 true "fires at 0";
  check_at 9 false "cooling at 9";
  check_at 10 true "fires at 10";
  check_at 19 false "cooling at 19";
  check_at 20 true "fires at 20 (gap did not grow)";
  check_at 1000 false "budget spent"

let check_backoff_grows name make =
  let at = make (Some 2.0) in
  let check_at step expected what = check cb (name ^ ": " ^ what) expected (at step) in
  check_at 0 true "fires at 0";
  check_at 9 false "cooling at 9";
  check_at 10 true "fires at 10";
  (* Gap doubled on firing: next window opens at 10 + 20. *)
  check_at 29 false "cooling at 29";
  check_at 30 true "fires at 30"

let test_storm_constant_gap () = check_constant_gap "storm" crash_storm
let test_storm_backoff_grows () = check_backoff_grows "storm" crash_storm
let test_system_storm_constant_gap () = check_constant_gap "system_storm" system_storm
let test_system_storm_backoff_grows () = check_backoff_grows "system_storm" system_storm

let test_abort_storm_gap_and_backoff () =
  check_constant_gap "abort storm" abort_storm;
  check_backoff_grows "abort storm" abort_storm

(* ------------------------------------------------------------------ *)
(* The composite rule: every member is consulted on every op           *)
(* ------------------------------------------------------------------ *)

let test_all_consults_every_member () =
  (* The one-shot fires at op 2, which is also p0's first read.  on_kind
     must still count that read, so its second read — op 4 — crashes; a
     composite that stopped at the first firing member would hide op 2
     from on_kind and crash at op 6 instead. *)
  let plan =
    Crash.all
      [
        Crash.at_op ~pid:0 ~nth:2 Crash.After;
        Crash.on_kind ~pid:0 ~kind:Api.Read ~occurrence:1 Crash.Before;
      ]
  in
  let crashed =
    List.filter
      (fun i ->
        let kind = if i mod 2 = 0 && i > 0 then Api.Read else Api.Write in
        is_crash (Crash.on_op plan (op_info ~op_index:i ~step:i ~kind ())))
      [ 0; 1; 2; 3; 4; 5; 6 ]
  in
  check (Alcotest.list ci) "crashes at ops 2 and 4" [ 2; 4 ] crashed

(* ------------------------------------------------------------------ *)
(* The engine's crash log and replay_fired over every crash axis        *)
(* ------------------------------------------------------------------ *)

let test_crash_log_captures_async_and_system () =
  (* One union plan strikes on all three axes; the system crash hits both
     live pids but is logged once. *)
  let res =
    Engine.run ~n:2 ~model:Memory.CC ~sched:(Sched.round_robin ())
      ~crash:
        (Crash.all
           [
             Crash.at_op ~pid:1 ~nth:2 Crash.After;
             Crash.async_at [ (7, 0) ];
             Crash.system_at ~step:11;
           ])
      ~setup:(fun _ -> ())
      ~body:(fun () ~pid:_ ->
        for _ = 1 to 10 do
          Api.yield ()
        done)
      ()
  in
  check ci "every crash delivered" 4 res.Engine.total_crashes;
  match res.Engine.crash_log with
  | [ op; asy; sys ] ->
      check ci "op pid" 1 op.Crash.f_pid;
      check ci "op index" 2 op.Crash.f_op_index;
      check cb "op point" true (op.Crash.f_point = Crash.After);
      check cb "op is synchronous" false op.Crash.f_async;
      check ci "async pid" 0 asy.Crash.f_pid;
      check ci "async step" 7 asy.Crash.f_step;
      check cb "async flagged" true asy.Crash.f_async;
      check ci "async has no op index" (-1) asy.Crash.f_op_index;
      check ci "system pid is -1" (-1) sys.Crash.f_pid;
      check ci "system step" 11 sys.Crash.f_step;
      check cb "system flagged async" true sys.Crash.f_async
  | f -> Alcotest.failf "expected 3 logged crashes, got %d" (List.length f)

(* Run [make] under an adversary on a recorded schedule, then replay its
   crash log on the same schedule and require the identical crash history,
   log and outcome. *)
let roundtrip ~n ~requests ~make ~adversary () =
  let decisions = Vec.create () in
  let first =
    Harness.run_lock ~record:true ~n ~model:Memory.CC
      ~sched:(Sched.recording ~inner:(Sched.random ~seed:42) ~decisions)
      ~crash:(adversary ()) ~requests ~make ()
  in
  let replayed =
    Harness.run_lock ~record:true ~n ~model:Memory.CC
      ~sched:(Sched.trace ~decisions ~record:(Vec.create ()) ())
      ~crash:(Crash.replay_fired first.Engine.crash_log) ~requests ~make ()
  in
  let crash_history res =
    List.filter_map
      (function
        | Event.Crash { step; pid; _ } -> Some (step, pid)
        | Event.Sys_crash { step } -> Some (step, -1)
        | _ -> None)
      res.Engine.events
  in
  check cb "some crashes fired" true (first.Engine.crash_log <> []);
  check cb "identical crash log" true (first.Engine.crash_log = replayed.Engine.crash_log);
  check cb "identical crash history" true (crash_history first = crash_history replayed);
  check ci "identical system crash count" first.Engine.system_crashes
    replayed.Engine.system_crashes;
  check ci "identical total crashes" first.Engine.total_crashes replayed.Engine.total_crashes;
  check ci "identical completions" (Engine.total_completed first)
    (Engine.total_completed replayed);
  check ci "identical steps" first.Engine.steps replayed.Engine.steps

let test_replay_roundtrip_batch () =
  roundtrip ~n:3 ~requests:2 ~make:Wr_lock.make
    ~adversary:(fun () -> Crash.batch ~step:30 ~pids:[ 0; 2 ])
    ()

let test_replay_roundtrip_system_storm () =
  roundtrip ~n:3 ~requests:2 ~make:Jjj_sys.make
    ~adversary:(fun () -> Crash.system_storm ~seed:7 ~rate:0.05 ~max_crashes:2 ~gap:15 ())
    ()

let test_replay_roundtrip_mixed () =
  (* All three axes live in one run: synchronous random crashes on one pid,
     an asynchronous strike, and a system-wide crash. *)
  roundtrip ~n:3 ~requests:2 ~make:Jjj_sys.make
    ~adversary:(fun () ->
      Crash.all
        [
          Crash.random ~seed:3 ~rate:0.01 ~max_crashes:1 ~pids:[ 1 ] ();
          Crash.async_at [ (45, 2) ];
          Crash.system_at ~step:80;
        ])
    ()

(* ------------------------------------------------------------------ *)
(* Chaos and sweep under the system-wide model                         *)
(* ------------------------------------------------------------------ *)

(* The system-model sweep enumerates one plan per distinct discovery step
   and the JJJ lock must survive every one of them — the conformance
   matrix row this pins. *)
let test_jjj_sys_sweeps_clean_under_system_model () =
  let cfg =
    {
      Sweep.default_cfg with
      Sweep.crash_model = Sweep.System_wide;
      max_runs_per_plan = 60;
      max_steps = 4_000;
      site_cap = 24;
      plan_cap = 40;
      budget = 1;
    }
  in
  let subject =
    Sweep.standard_subject ~name:"jjj-sys" ~n:2 ~requests:1 ~cs_yields:2 ~recoverability:`Strong
      Jjj_sys.make
  in
  let rows = Sweep.matrix cfg ~model:Memory.CC ~subjects:[ subject ] in
  let row = List.hd rows in
  let swept_system_plans =
    (* plans_run counts No_crash too; at least one System plan must have run *)
    row.Sweep.row_campaign.Sweep.plans_run > 1
  in
  check cb "system plans were swept" true swept_system_plans;
  check ci "no failures" 0 (List.length (Sweep.matrix_failures rows));
  List.iter
    (fun (prop, verdict) ->
      check Alcotest.string (prop ^ " verdict") "pass" (Sweep.verdict_string verdict))
    row.Sweep.row_verdicts

(* A Chaos campaign with the system-storm adversary must discover the
   planted bug, confirm it by deterministic replay, shrink the witness —
   and the whole outcome must be byte-identical across domain counts. *)
let test_chaos_system_adversary_finds_planted_bug () =
  let case =
    {
      Chaos.case_name = "naive-ticket";
      case_make = naive_ticket_make;
      case_weak = false;
      case_ff_bound = None;
      case_abortable = false;
    }
  in
  let cfg = { Chaos.default_cfg with Chaos.max_steps = 40_000 } in
  let adversary =
    Chaos.Sys_storm { rate = 0.02; max_crashes = 2; gap = 60; backoff = 1.0 }
  in
  let outcome_for jobs =
    Chaos.campaign ~cfg ~jobs ~adversaries:[ adversary ] ~runs:24 ~seed_base:0 [ case ]
  in
  let o1 = outcome_for 1 in
  check cb "campaign found a violation" true (o1.Chaos.violations <> []);
  let v = List.hd o1.Chaos.violations in
  check cb "system crash fired" true
    (List.exists (fun (f : Crash.fired) -> f.f_async && f.f_pid < 0) v.Chaos.v_fired);
  check cb "replay confirmed the violation" true v.Chaos.v_replay_ok;
  let fingerprint (o : Chaos.outcome) =
    List.map
      (fun (v : Chaos.violation) ->
        (v.Chaos.v_case, v.Chaos.v_seed, v.Chaos.v_problems, v.Chaos.v_replay_ok,
         v.Chaos.v_witness))
      o.Chaos.violations
  in
  let fp1 = fingerprint o1 in
  List.iter
    (fun jobs ->
      let o = outcome_for jobs in
      check cb
        (Printf.sprintf "outcome identical at jobs=%d" jobs)
        true
        (fingerprint o = fp1 && o.Chaos.crashes = o1.Chaos.crashes))
    [ 2; 4 ]

let () =
  Alcotest.run "syscrash"
    [
      ( "engine",
        [
          Alcotest.test_case "system crash erases everyone" `Quick test_system_crash_erases_everyone;
          Alcotest.test_case "system crash reaches parked" `Quick test_system_crash_reaches_parked;
          Alcotest.test_case "op_index continues across system crash" `Quick
            test_op_index_continues_across_system_crash;
        ] );
      ( "jjj-sys",
        [
          Alcotest.test_case "failure free" `Quick test_jjj_sys_failure_free;
          Alcotest.test_case "FCFS" `Quick test_jjj_sys_fcfs_failure_free;
          Alcotest.test_case "survives system storms" `Quick test_jjj_sys_survives_system_storms;
          Alcotest.test_case "explored under system crashes" `Slow
            test_jjj_sys_explored_under_system_crashes;
          Alcotest.test_case "dm locks survive a system crash" `Slow
            test_dm_locks_survive_system_crash;
          Alcotest.test_case "naive ticket lock breaks" `Quick
            test_naive_ticket_breaks_under_system_crash;
          Alcotest.test_case "witness: per-process pair" `Quick test_witness_per_process;
          Alcotest.test_case "witness: system@8 + system@19" `Quick
            (test_witness_system ~second:19 ~ones:33);
          Alcotest.test_case "witness: system@8 + system@27" `Quick
            (test_witness_system ~second:27 ~ones:19);
        ] );
      ( "plans",
        [
          Alcotest.test_case "por_class table" `Quick test_por_class_table;
          Alcotest.test_case "storm constant gap (backoff 1)" `Quick test_storm_constant_gap;
          Alcotest.test_case "storm backoff grows" `Quick test_storm_backoff_grows;
          Alcotest.test_case "system storm constant gap" `Quick test_system_storm_constant_gap;
          Alcotest.test_case "system storm backoff grows" `Quick test_system_storm_backoff_grows;
          Alcotest.test_case "abort storm gap and backoff" `Quick
            test_abort_storm_gap_and_backoff;
          Alcotest.test_case "all consults every member" `Quick test_all_consults_every_member;
        ] );
      ( "check",
        [
          Alcotest.test_case "jjj-sys sweeps clean under system model" `Quick
            test_jjj_sys_sweeps_clean_under_system_model;
          Alcotest.test_case "chaos system adversary finds planted bug" `Quick
            test_chaos_system_adversary_finds_planted_bug;
        ] );
      ( "record-replay",
        [
          Alcotest.test_case "record captures async and system" `Quick
            test_crash_log_captures_async_and_system;
          Alcotest.test_case "roundtrip: batch" `Quick test_replay_roundtrip_batch;
          Alcotest.test_case "roundtrip: system storm" `Quick test_replay_roundtrip_system_storm;
          Alcotest.test_case "roundtrip: mixed axes" `Quick test_replay_roundtrip_mixed;
        ] );
    ]
