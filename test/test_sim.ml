(* Unit tests for the simulator substrate: memory/RMR accounting, crash
   plans, schedulers, and basic engine behaviour. *)

open Rme_sim

let check = Alcotest.check

let ci = Alcotest.int

let cb = Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Memory / RMR accounting                                             *)
(* ------------------------------------------------------------------ *)

let test_cc_read_caching () =
  let mem = Memory.create Memory.CC ~n:2 in
  let c = Memory.alloc mem ~name:"x" 7 in
  check ci "value" 7 (Memory.read_u mem ~pid:0 c);
  check ci "first read misses" 1 (Memory.last_cost mem);
  ignore (Memory.read_u mem ~pid:0 c);
  check ci "second read hits" 0 (Memory.last_cost mem);
  ignore (Memory.read_u mem ~pid:1 c);
  check ci "other process misses" 1 (Memory.last_cost mem)

let test_cc_write_invalidates () =
  let mem = Memory.create Memory.CC ~n:2 in
  let c = Memory.alloc mem ~name:"x" 0 in
  ignore (Memory.read_u mem ~pid:0 c);
  let r = Memory.write mem ~pid:1 c 5 in
  check ci "write costs one RMR" 1 r;
  let v = Memory.read_u mem ~pid:0 c in
  check ci "reader refetches" 1 (Memory.last_cost mem);
  check ci "sees new value" 5 v;
  ignore (Memory.read_u mem ~pid:1 c);
  check ci "writer reads its own cache" 0 (Memory.last_cost mem)

let test_cc_failed_cas_keeps_caches () =
  let mem = Memory.create Memory.CC ~n:2 in
  let c = Memory.alloc mem ~name:"x" 1 in
  ignore (Memory.read_u mem ~pid:0 c);
  let ok = Memory.cas_u mem ~pid:1 c ~expect:9 ~value:2 in
  check cb "cas failed" false ok;
  check ci "failed cas still costs" 1 (Memory.last_cost mem);
  ignore (Memory.read_u mem ~pid:0 c);
  check ci "reader cache still valid" 0 (Memory.last_cost mem)

let test_cc_successful_cas_invalidates () =
  let mem = Memory.create Memory.CC ~n:2 in
  let c = Memory.alloc mem ~name:"x" 1 in
  ignore (Memory.read_u mem ~pid:0 c);
  let ok = Memory.cas_u mem ~pid:1 c ~expect:1 ~value:2 in
  check cb "cas ok" true ok;
  let v = Memory.read_u mem ~pid:0 c in
  check ci "invalidated" 1 (Memory.last_cost mem);
  check ci "new value" 2 v

let test_dsm_home_locality () =
  let mem = Memory.create Memory.DSM ~n:3 in
  let local = Memory.alloc mem ~home:1 ~name:"local" 0 in
  let global = Memory.alloc mem ~name:"global" 0 in
  ignore (Memory.read_u mem ~pid:1 local);
  check ci "home read is local" 0 (Memory.last_cost mem);
  ignore (Memory.read_u mem ~pid:0 local);
  check ci "remote read costs" 1 (Memory.last_cost mem);
  check ci "home write is local" 0 (Memory.write mem ~pid:1 local 3);
  check ci "remote write costs" 1 (Memory.write mem ~pid:2 local 4);
  ignore (Memory.read_u mem ~pid:0 global);
  check ci "global cell is remote to all" 1 (Memory.last_cost mem);
  ignore (Memory.faa_u mem ~pid:2 global 1);
  check ci "global faa remote" 1 (Memory.last_cost mem)

let test_fas_faa_semantics () =
  let mem = Memory.create Memory.CC ~n:1 in
  let c = Memory.alloc mem ~name:"x" 10 in
  check ci "fas returns old" 10 (Memory.fas_u mem ~pid:0 c 20);
  check ci "fas stored" 20 (Memory.peek mem c);
  check ci "faa returns old" 20 (Memory.faa_u mem ~pid:0 c 5);
  check ci "faa added" 25 (Memory.peek mem c)

(* ------------------------------------------------------------------ *)
(* Crash plans                                                         *)
(* ------------------------------------------------------------------ *)

let info ?(pid = 0) ?(step = 0) ?(op_index = 0) ?(kind = Api.Read) ?cell ?note
    ?(unsafe_wrt = []) () =
  { Crash.pid; step; op_index; kind; cell; note; unsafe_wrt }

let test_crash_none () =
  check cb "no crash" true (Crash.on_op Crash.none (info ()) = Crash.No_crash)

let test_crash_at_op () =
  let plan = Crash.at_op ~pid:1 ~nth:2 Crash.Before in
  check cb "wrong pid" true (Crash.on_op plan (info ~pid:0 ~op_index:2 ()) = Crash.No_crash);
  check cb "wrong index" true (Crash.on_op plan (info ~pid:1 ~op_index:1 ()) = Crash.No_crash);
  check cb "fires" true (Crash.on_op plan (info ~pid:1 ~op_index:2 ()) = Crash.Crash Crash.Before);
  check cb "fires once" true (Crash.on_op plan (info ~pid:1 ~op_index:2 ()) = Crash.No_crash)

let test_crash_on_kind_occurrence () =
  let plan = Crash.on_kind ~pid:0 ~kind:Api.Fas ~occurrence:1 Crash.After in
  check cb "read ignored" true (Crash.on_op plan (info ~kind:Api.Read ()) = Crash.No_crash);
  check cb "first fas ignored" true (Crash.on_op plan (info ~kind:Api.Fas ()) = Crash.No_crash);
  check cb "second fas fires" true (Crash.on_op plan (info ~kind:Api.Fas ()) = Crash.Crash Crash.After)

let test_crash_random_budget () =
  let plan = Crash.random ~seed:42 ~rate:1.0 ~max_crashes:3 () in
  let fired = ref 0 in
  for i = 0 to 9 do
    match Crash.on_op plan (info ~op_index:i ()) with
    | Crash.Crash _ -> incr fired
    | Crash.No_crash -> ()
  done;
  check ci "budget respected" 3 !fired

let test_crash_async_at () =
  let plan = Crash.async_at [ (5, 1); (10, 2) ] in
  check cb "nothing before" true (Crash.async plan ~step:4 = []);
  check cb "fires at 5" true (Crash.async plan ~step:5 = [ 1 ]);
  check cb "once" true (Crash.async plan ~step:6 = []);
  check cb "second at 12" true (Crash.async plan ~step:12 = [ 2 ])

let test_crash_all_combines () =
  let plan = Crash.all [ Crash.at_op ~pid:0 ~nth:0 Crash.Before; Crash.at_op ~pid:1 ~nth:0 Crash.After ] in
  check cb "first" true (Crash.on_op plan (info ~pid:0 ()) = Crash.Crash Crash.Before);
  check cb "second" true (Crash.on_op plan (info ~pid:1 ()) = Crash.Crash Crash.After)

(* ------------------------------------------------------------------ *)
(* Schedulers                                                          *)
(* ------------------------------------------------------------------ *)

let test_round_robin_cycles () =
  let s = Sched.round_robin () in
  let runnable = [| 0; 1; 2 |] in
  let picks = List.init 6 (fun i -> Sched.pick s ~runnable ~step:i) in
  check (Alcotest.list ci) "cycle" [ 1; 2; 0; 1; 2; 0 ] picks

let test_round_robin_skips_blocked () =
  let s = Sched.round_robin () in
  let p1 = Sched.pick s ~runnable:[| 0; 2 |] ~step:0 in
  let p2 = Sched.pick s ~runnable:[| 0; 2 |] ~step:1 in
  check (Alcotest.list ci) "skips" [ 2; 0 ] [ p1; p2 ]

let test_random_sched_is_fair () =
  let s = Sched.random ~seed:7 in
  let counts = Array.make 3 0 in
  for i = 0 to 2999 do
    let p = Sched.pick s ~runnable:[| 0; 1; 2 |] ~step:i in
    counts.(p) <- counts.(p) + 1
  done;
  Array.iter (fun c -> check cb "roughly uniform" true (c > 800 && c < 1200)) counts

let test_random_sched_deterministic () =
  let run () =
    let s = Sched.random ~seed:11 in
    List.init 20 (fun i -> Sched.pick s ~runnable:[| 0; 1; 2; 3 |] ~step:i)
  in
  check (Alcotest.list ci) "same seed, same schedule" (run ()) (run ())

(* ------------------------------------------------------------------ *)
(* Engine basics                                                       *)
(* ------------------------------------------------------------------ *)

(* A body that increments a shared counter [requests] times, no locking. *)
let counter_body cell ~requests ~pid:_ =
  while Api.completed_requests () < requests do
    Api.note (Event.Seg Event.Req_begin);
    let v = Api.read cell in
    Api.write cell (v + 1);
    Api.note (Event.Seg Event.Req_done)
  done

let test_burst_sched_bursts () =
  let s = Sched.burst ~seed:3 ~len:4 in
  let picks = List.init 12 (fun i -> Sched.pick s ~runnable:[| 0; 1; 2 |] ~step:i) in
  (* Consecutive picks come in runs of exactly 4. *)
  let rec runs acc current count = function
    | [] -> List.rev (count :: acc)
    | p :: rest ->
        if p = current then runs acc current (count + 1) rest
        else runs (count :: acc) p 1 rest
  in
  (match picks with
  | p :: rest ->
      (* Adjacent bursts of the same pid merge, so runs are multiples of 4. *)
      List.iter (fun len -> check ci "burst multiple" 0 (len mod 4)) (runs [] p 1 rest)
  | [] -> Alcotest.fail "no picks");
  (* Burst scheduling drives a lock correctly. *)
  let s = Sched.burst ~seed:9 ~len:6 in
  let res =
    Engine.run ~n:3 ~model:Memory.CC ~sched:s ~crash:Crash.none
      ~setup:(fun ctx -> Memory.alloc (Engine.Ctx.memory ctx) ~name:"c" 0)
      ~body:(fun c ~pid -> counter_body c ~requests:4 ~pid)
      ()
  in
  check ci "all done under burst" 12 (Engine.total_completed res)

(* The replay schedulers ([Sched.recording], [Sched.trace], the engine's
   decision-vector pick) index the ready set directly, so every pick must
   see a strictly ascending one — across per-process crashes, a
   system-wide crash and abort signals too. *)
let test_ready_set_ascending () =
  let inner = Sched.random ~seed:5 in
  let picks = ref 0 and unsorted = ref [] in
  let sched =
    Sched.make ~label:"ascending" (fun ~runnable ~step ->
        incr picks;
        for i = 1 to Array.length runnable - 1 do
          if runnable.(i - 1) >= runnable.(i) then unsorted := step :: !unsorted
        done;
        Sched.pick inner ~runnable ~step)
  in
  let crash =
    Crash.all
      [
        Crash.at_op ~pid:1 ~nth:3 Crash.After;
        Crash.at_op ~pid:2 ~nth:9 Crash.Before;
        Crash.system_at ~step:80;
      ]
  in
  let abort = Abort.all [ Abort.at_op ~pid:0 ~nth:2; Abort.impatient ~timeout_steps:15 () ] in
  let res =
    Harness.run_lock ~max_steps:50_000 ~n:3 ~model:Memory.CC ~sched ~crash ~abort ~requests:3
      ~make:(Rme.Spec.find_exn "wr-abort").Rme.Spec.make ()
  in
  check (Alcotest.list ci) "every ready set strictly ascending" [] !unsorted;
  check cb "the run completed" true ((not res.Engine.deadlocked) && not res.Engine.timed_out);
  check ci "one system-wide crash" 1 res.Engine.system_crashes;
  check cb "per-process crashes fired" true (res.Engine.total_crashes > 3);
  check cb "abort signals delivered" true (res.Engine.aborts <> []);
  check cb "picks checked" true (!picks > 100)

let run_counter ?(n = 3) ?(requests = 5) ?(crash = Crash.none) ?(sched = Sched.round_robin ()) () =
  let cellr = ref None in
  let res =
    Engine.run ~n ~model:Memory.CC ~sched ~crash
      ~setup:(fun ctx ->
        let c = Memory.alloc (Engine.Ctx.memory ctx) ~name:"counter" 0 in
        cellr := Some c;
        c)
      ~body:(fun c ~pid -> counter_body c ~requests ~pid)
      ()
  in
  (res, Option.get !cellr)

let test_engine_runs_to_completion () =
  let res, _ = run_counter () in
  check cb "not deadlocked" false res.Engine.deadlocked;
  check cb "not timed out" false res.Engine.timed_out;
  check ci "all requests" 15 (Engine.total_completed res)

let test_engine_counts_passages () =
  let res, _ = run_counter ~n:2 ~requests:4 () in
  Array.iter
    (fun (p : Engine.proc_stats) ->
      check ci "passages" 4 (List.length p.passages);
      List.iter (fun (pp : Engine.passage) -> check cb "completed" true pp.completed) p.passages)
    res.Engine.procs

let test_engine_restarts_after_crash () =
  (* Crash p0 once somewhere in its run; everything still completes. *)
  let crash = Crash.at_op ~pid:0 ~nth:3 Crash.Before in
  let res, _ = run_counter ~crash () in
  check ci "one crash" 1 res.Engine.total_crashes;
  check ci "still all requests" 15 (Engine.total_completed res);
  let p0 : Engine.proc_stats = res.Engine.procs.(0) in
  check ci "p0 crashed once" 1 p0.crashes;
  check cb "p0 has a failed passage" true
    (List.exists (fun (p : Engine.passage) -> not p.completed) p0.passages)

let test_engine_crash_after_applies_op () =
  (* p0 crashes immediately after its first write: the write must be visible
     (the instruction executed; only the result was lost). *)
  let cellr = ref None in
  let res =
    Engine.run ~n:1 ~model:Memory.CC ~sched:(Sched.round_robin ())
      ~crash:(Crash.on_kind ~pid:0 ~kind:Api.Write ~occurrence:0 Crash.After)
      ~setup:(fun ctx ->
        let c = Memory.alloc (Engine.Ctx.memory ctx) ~name:"x" 0 in
        cellr := Some c;
        c)
      ~body:(fun c ~pid:_ ->
        if Api.completed_requests () < 1 then begin
          Api.note (Event.Seg Event.Req_begin);
          Api.write c 42;
          Api.note (Event.Seg Event.Req_done)
        end)
      ()
  in
  let mem_val =
    match res.Engine.events with _ -> () in
  ignore mem_val;
  check ci "one crash" 1 res.Engine.total_crashes;
  (* After restart the body runs again (completed is still 0) and finishes. *)
  check ci "completed after retry" 1 (Engine.total_completed res);
  match !cellr with
  | Some _ -> ()
  | None -> Alcotest.fail "cell not allocated"

let test_op_index_continues_across_restarts () =
  (* The per-process instruction counter is never reset by a crash: a body
     of six faa ops crashed After op 3 yields op_index 0..3 before the
     restart and 4..9 after it — one unbroken sequence.  This pins the
     semantics documented on [Crash.op_info.op_index]. *)
  let seen = ref [] in
  let res =
    Engine.run ~n:1 ~model:Memory.CC ~sched:(Sched.round_robin ())
      ~crash:(Crash.at_op ~pid:0 ~nth:3 Crash.After)
      ~on_op:(fun (info : Crash.op_info) -> seen := info.Crash.op_index :: !seen)
      ~setup:(fun ctx -> Memory.alloc (Engine.Ctx.memory ctx) ~name:"x" 0)
      ~body:(fun c ~pid:_ -> for _ = 1 to 6 do ignore (Api.faa c 1) done)
      ()
  in
  check ci "one crash" 1 res.Engine.total_crashes;
  check (Alcotest.list ci) "op_index unbroken across the restart"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev !seen)

let test_engine_crash_before_skips_op () =
  (* With crash Before on the only write of a 1-request body, the op is not
     applied on the first attempt; the retry applies it. *)
  let res =
    Engine.run ~n:1 ~model:Memory.CC ~sched:(Sched.round_robin ())
      ~crash:(Crash.on_kind ~pid:0 ~kind:Api.Write ~occurrence:0 Crash.Before)
      ~setup:(fun ctx -> Memory.alloc (Engine.Ctx.memory ctx) ~name:"x" 0)
      ~body:(fun c ~pid:_ ->
        while Api.completed_requests () < 1 do
          Api.note (Event.Seg Event.Req_begin);
          Api.write c (Api.read c + 1);
          Api.note (Event.Seg Event.Req_done)
        done)
      ()
  in
  check ci "crashed once" 1 res.Engine.total_crashes;
  check ci "completed" 1 (Engine.total_completed res)

let test_engine_spin_park_and_wake () =
  (* p1 spins on a flag that p0 sets: both must finish, and the spin must not
     consume unbounded steps. *)
  let res =
    Engine.run ~n:2 ~model:Memory.CC ~sched:(Sched.round_robin ())
      ~crash:Crash.none
      ~setup:(fun ctx -> Memory.alloc (Engine.Ctx.memory ctx) ~name:"flag" 0)
      ~body:(fun flag ~pid ->
        if Api.completed_requests () < 1 then begin
          Api.note (Event.Seg Event.Req_begin);
          if pid = 0 then begin
            (* Let the scheduler bounce a bit before setting the flag. *)
            Api.yield ();
            Api.yield ();
            Api.write flag 1
          end
          else Api.spin_until flag (Api.Eq 1);
          Api.note (Event.Seg Event.Req_done)
        end)
      ()
  in
  check cb "no deadlock" false res.Engine.deadlocked;
  check ci "both done" 2 (Engine.total_completed res);
  check cb "bounded steps" true (res.Engine.steps < 50)

let test_engine_detects_deadlock () =
  let res =
    Engine.run ~n:1 ~model:Memory.CC ~sched:(Sched.round_robin ())
      ~crash:Crash.none
      ~setup:(fun ctx -> Memory.alloc (Engine.Ctx.memory ctx) ~name:"flag" 0)
      ~body:(fun flag ~pid:_ ->
        if Api.completed_requests () < 1 then begin
          Api.note (Event.Seg Event.Req_begin);
          Api.spin_until flag (Api.Eq 1);
          Api.note (Event.Seg Event.Req_done)
        end)
      ()
  in
  check cb "deadlocked" true res.Engine.deadlocked;
  check ci "nothing completed" 0 (Engine.total_completed res)

let test_engine_async_crash_unblocks_parked () =
  (* A parked process is crashed asynchronously; after restart the flag is
     set by the other process and everything completes. *)
  let res =
    Engine.run ~n:2 ~model:Memory.CC ~sched:(Sched.round_robin ())
      ~crash:(Crash.async_at [ (4, 1) ])
      ~setup:(fun ctx -> Memory.alloc (Engine.Ctx.memory ctx) ~name:"flag" 0)
      ~body:(fun flag ~pid ->
        while Api.completed_requests () < 1 do
          Api.note (Event.Seg Event.Req_begin);
          if pid = 0 then begin
            for _ = 1 to 6 do
              Api.yield ()
            done;
            Api.write flag 1
          end
          else Api.spin_until flag (Api.Eq 1);
          Api.note (Event.Seg Event.Req_done)
        done)
      ()
  in
  check ci "crashed once" 1 res.Engine.total_crashes;
  check ci "both done" 2 (Engine.total_completed res)

let test_engine_rmr_accounting_simple () =
  (* One process, two writes to a fresh cell under CC: 2 RMRs. *)
  let res =
    Engine.run ~n:1 ~model:Memory.CC ~sched:(Sched.round_robin ()) ~crash:Crash.none
      ~setup:(fun ctx -> Memory.alloc (Engine.Ctx.memory ctx) ~name:"x" 0)
      ~body:(fun c ~pid:_ ->
        if Api.completed_requests () < 1 then begin
          Api.note (Event.Seg Event.Req_begin);
          Api.write c 1;
          Api.write c 2;
          let (_ : int) = Api.read c in
          Api.note (Event.Seg Event.Req_done)
        end)
      ()
  in
  check ci "two RMRs (reads hit cache)" 2 res.Engine.total_rmr

let test_rmr_by_kind_sums () =
  let res, _ = run_counter ~n:3 ~requests:5 () in
  let by_kind = List.fold_left (fun acc (_, v) -> acc + v) 0 res.Engine.rmr_by_kind in
  check ci "kind breakdown sums to total" res.Engine.total_rmr by_kind;
  check cb "reads and writes present" true
    (List.mem_assoc Api.Read res.Engine.rmr_by_kind
    && List.mem_assoc Api.Write res.Engine.rmr_by_kind)

let test_engine_records_events () =
  let res, _ = run_counter ~n:1 ~requests:2 () in
  check cb "no events unless recording" true (res.Engine.events = []);
  let res =
    Engine.run ~record:true ~n:1 ~model:Memory.CC ~sched:(Sched.round_robin ())
      ~crash:Crash.none
      ~setup:(fun ctx -> Memory.alloc (Engine.Ctx.memory ctx) ~name:"c" 0)
      ~body:(fun c ~pid -> counter_body c ~requests:2 ~pid)
      ()
  in
  let begins =
    List.length
      (List.filter
         (function Event.Note { note = Event.Seg Event.Req_begin; _ } -> true | _ -> false)
         res.Engine.events)
  in
  check ci "two passages recorded" 2 begins

let test_engine_max_steps_times_out () =
  let res =
    Engine.run ~max_steps:10 ~n:1 ~model:Memory.CC ~sched:(Sched.round_robin ())
      ~crash:Crash.none
      ~setup:(fun ctx -> Memory.alloc (Engine.Ctx.memory ctx) ~name:"c" 0)
      ~body:(fun c ~pid:_ ->
        while true do
          Api.write c 1
        done)
      ()
  in
  check cb "timed out" true res.Engine.timed_out

let test_engine_propagates_body_exceptions () =
  (* A genuine bug in a process body (not a simulated crash) must surface to
     the caller, never be swallowed. *)
  let boom () =
    ignore
      (Engine.run ~n:1 ~model:Memory.CC ~sched:(Sched.round_robin ()) ~crash:Crash.none
         ~setup:(fun ctx -> Memory.alloc (Engine.Ctx.memory ctx) ~name:"c" 0)
         ~body:(fun c ~pid:_ ->
           let (_ : int) = Api.read c in
           failwith "bug in body")
         ())
  in
  Alcotest.check_raises "propagates" (Failure "bug in body") boom

let test_engine_rejects_swallowed_crash () =
  (* A simulated crash erases the fiber; a body that catches [Crashed] and
     keeps computing would survive it, so the engine refuses to go on. *)
  let swallow () =
    ignore
      (Engine.run ~n:1 ~model:Memory.CC ~sched:(Sched.round_robin ())
         ~crash:(Crash.at_op ~pid:0 ~nth:0 Crash.Before)
         ~setup:(fun _ -> ())
         ~body:(fun () ~pid:_ -> try Api.yield () with _ -> Api.yield ())
         ())
  in
  Alcotest.check_raises "refused"
    (Failure "Engine: process body must not catch the crash exception") swallow

let test_engine_midrun_allocation () =
  (* Cells may be allocated during the run (queue nodes): accounting and
     parking still work on them. *)
  let res =
    Engine.run ~n:2 ~model:Memory.CC ~sched:(Sched.round_robin ()) ~crash:Crash.none
      ~setup:(fun ctx -> Engine.Ctx.memory ctx)
      ~body:(fun mem ~pid ->
        if Api.completed_requests () < 1 then begin
          Api.note (Event.Seg Event.Req_begin);
          if pid = 0 then begin
            let fresh = Memory.alloc mem ~name:"late" 0 in
            Api.write fresh 1;
            let v = Api.read fresh in
            if v <> 1 then failwith "lost write"
          end
          else Api.yield ();
          Api.note (Event.Seg Event.Req_done)
        end)
      ()
  in
  check ci "both done" 2 (Engine.total_completed res)

let test_engine_parks_on_late_cell () =
  (* A waiter parks on a cell the run allocated, past every cell the
     sealed store holds, and the write that satisfies its spin wakes it:
     the parked-cell marks grow to the late cell's id.  Twice on one
     arena, the second run rewinding the first's. *)
  let sealed = ref 0 in
  let setup ctx =
    let mem = Engine.Ctx.memory ctx in
    let flag = Memory.alloc mem ~name:"flag" 0 in
    sealed := Memory.cell_count mem;
    (mem, flag, ref flag)
  in
  let late_id = ref (-1) in
  let body (mem, flag, shared) ~pid =
    if pid = 0 then begin
      let late = ref flag in
      for i = 0 to 39 do
        late := Memory.alloc mem ~name:(Printf.sprintf "late%d" i) 0
      done;
      late_id := !late.Cell.id;
      shared := !late;
      Api.write flag 1;
      for _ = 1 to 4 do
        Api.yield ()
      done;
      Api.write !late 1
    end
    else begin
      Api.spin_until flag (Api.Eq 1);
      Api.spin_until !shared (Api.Eq 1)
    end
  in
  let arena = Engine.arena ~n:2 ~model:Memory.CC ~setup ~body in
  let opts = Engine.opts ~trace_ops:true () in
  for run = 1 to 2 do
    let res =
      Engine.run_in opts ~arena ~crash:Crash.none ~abort:Abort.none
        (Sched (Sched.round_robin ()))
    in
    let label = Printf.sprintf "run %d: " run in
    check cb (label ^ "late cell past the sealed store") true (!late_id >= !sealed);
    check cb (label ^ "no stall") true (res.Engine.stall = None);
    (* The waiter's traced spins on the late cell: the fetch that read 0
       and parked it, then the woken re-read of the write's 1. *)
    let spins value =
      List.length
        (List.filter
           (function
             | Event.Op { pid = 1; kind = "spin"; cell = "late39"; value = v; _ } -> v = value
             | _ -> false)
           res.Engine.events)
    in
    check ci (label ^ "parked on the late cell") 1 (spins 0);
    check ci (label ^ "woken re-read traced") 1 (spins 1);
    check cb (label ^ "replay verifies") true
      ((Rme_check.Replay.verify res).Rme_check.Replay.divergence = None)
  done

let test_percentiles () =
  check ci "p50" 5 (Engine.percentile [ 1; 2; 3; 4; 5; 6; 7; 8; 9 ] 0.5);
  check ci "p0" 1 (Engine.percentile [ 1; 2; 3 ] 0.0);
  check ci "p100" 3 (Engine.percentile [ 1; 2; 3 ] 1.0);
  check ci "empty" 0 (Engine.percentile [] 0.9)

let test_latency_recorded () =
  let res, _ = run_counter ~n:2 ~requests:3 () in
  let ls = Engine.latencies res in
  check ci "six passages" 6 (List.length ls);
  List.iter (fun l -> check cb "positive latency" true (l > 0)) ls

let test_engine_get_done_survives_crash () =
  (* completed_requests is recoverable state: after a crash the process must
     not redo finished requests. *)
  let res =
    Engine.run ~n:1 ~model:Memory.CC ~sched:(Sched.round_robin ())
      ~crash:(Crash.at_op ~pid:0 ~nth:9 Crash.Before)
      ~setup:(fun ctx -> Memory.alloc (Engine.Ctx.memory ctx) ~name:"c" 0)
      ~body:(fun c ~pid ->
        counter_body c ~requests:3 ~pid)
      ()
  in
  check ci "crash happened" 1 res.Engine.total_crashes;
  check ci "exactly 3 requests" 3 (Engine.total_completed res)

(* ------------------------------------------------------------------ *)
(* Engine arenas: a run on a reused arena is a run on a fresh one      *)
(* ------------------------------------------------------------------ *)

type observed = Engine.result * int array * Footprint.t array * int array list

(* Everything a caller can read of one decision-vector run on [arena]:
   the result, the degrees and footprints of the positions it reached
   (copied before the arena's next run overwrites them) and the state
   keys it reported. *)
let observe ?(record = false) ?(max_steps = 20_000) ?(crash = Crash.none) ?(abort = Abort.none)
    ?(state_key_at = -1) ?(decisions = [||]) arena : observed =
  let keys = ref [] in
  let opts =
    Engine.opts ~record ~max_steps ~por:true ~on_state_key:(fun k -> keys := k :: !keys) ()
  in
  let res = Engine.run_in opts ~arena ~crash ~abort (Trace { decisions; key_at = state_key_at }) in
  let degrees = Array.sub (Engine.degrees arena) 0 (Engine.positions arena) in
  let footprints = Array.sub (Engine.footprints arena) 0 (Array.fold_left ( + ) 0 degrees) in
  (res, degrees, footprints, !keys)

(* Three processes that all end parked on a cell nobody writes: p0 inside
   an open unsafe window of the scenario's lock, p1 after a crash and
   restart, p2 holding the lock inside the application CS.  The run
   deadlocks with every fiber suspended. *)
let stuck_setup ctx =
  let mem = Engine.Ctx.memory ctx in
  let lock = Engine.Ctx.register_lock ctx "stuck" in
  (lock, Memory.alloc mem ~name:"x" 0, Memory.alloc mem ~name:"gate" 0)

let stuck_body (lock, x, gate) ~pid =
  Api.note (Event.Seg Event.Req_begin);
  (match pid with
  | 0 -> ignore (Api.fas_open_unsafe ~lock x 1)
  | 1 -> Api.write x 2
  | _ ->
      Api.note (Event.Lock_acquired lock);
      Api.note (Event.Seg Event.Cs_begin));
  Api.spin_until gate (Api.Eq 1)

let stuck_arena () = Engine.arena ~n:3 ~model:Memory.CC ~setup:stuck_setup ~body:stuck_body

let stuck arena =
  observe ~state_key_at:4
    ~crash:(Crash.on_kind ~pid:1 ~kind:Api.Write ~occurrence:0 Crash.After)
    arena

(* The stuck subject without the crash, in another order: its state key
   would show any state the stuck run left. *)
let unstuck arena = observe ~state_key_at:3 ~decisions:[| 2; 1; 0 |] arena

(* Two waiters park on [gate]; the third process reads the clock and, if
   it comes early, parks on a cell nobody writes (the run deadlocks with
   every process parked), else opens the gate and wakes both. *)
let gated_setup ctx =
  let mem = Engine.Ctx.memory ctx in
  (Memory.alloc mem ~name:"gate" 0, Memory.alloc mem ~name:"never" 0)

let gated_body (gate, never) ~pid =
  if pid < 2 then Api.spin_until gate (Api.Eq 1)
  else if Api.step () < 4 then Api.spin_until never (Api.Eq 1)
  else Api.write gate 1

let gated_arena () = Engine.arena ~n:3 ~model:Memory.CC ~setup:gated_setup ~body:gated_body

(* p2 first: it reads step 1 and parks; then both waiters park. *)
let gated_stuck arena = observe ~state_key_at:2 ~decisions:[| 2; 2 |] arena

(* Both waiters park first; p2 then reads step 5 and opens the gate on
   the cell the run before left marked. *)
let gated_open arena = observe ~state_key_at:5 arena

let standard lock ~pid = Harness.standard_body ~lock ~requests:1 pid

let lock_setup key = (Rme.Spec.find_exn key).Rme.Spec.make

let wr_arena () = Engine.arena ~n:3 ~model:Memory.CC ~setup:(lock_setup "wr") ~body:standard

(* Cut by [max_steps] mid-passage under a crash plan that has struck
   inside WR-Lock's unsafe window. *)
let cut arena =
  observe ~max_steps:60
    ~crash:(Crash.random ~seed:2 ~rate:0.05 ~max_crashes:3 ())
    ~decisions:[| 0; 1; 2; 2; 1; 0; 1 |] arena

(* Per subject, one arena: a deadlock with every fiber suspended, or a run
   cut mid-passage after an unsafe crash, followed by runs whose state
   keys would show what it left. *)
let arena_runs : ((unit -> Engine.arena) * (Engine.arena -> observed) list) list =
  [
    (stuck_arena, [ stuck; unstuck; stuck; unstuck ]);
    (gated_arena, [ gated_stuck; gated_open; gated_stuck; gated_open ]);
    (wr_arena, [ cut; observe ~state_key_at:10; cut; observe ~state_key_at:6 ]);
  ]

let test_arena_matches_fresh () =
  let (res, _, _, _) = stuck (stuck_arena ()) in
  check cb "the stuck run deadlocks" true res.Engine.deadlocked;
  let (res, _, _, _) = cut (wr_arena ()) in
  check cb "the cut run times out" true res.Engine.timed_out;
  check cb "after an unsafe crash" true (res.Engine.locks.(0).Engine.unsafe_crashes > 0);
  let (res, _, _, _) = gated_stuck (gated_arena ()) in
  check cb "the gated run deadlocks" true res.Engine.deadlocked;
  let (res, _, _, _) = gated_open (gated_arena ()) in
  check cb "the opened gate wakes both waiters" true (res.Engine.stall = None);
  List.iter
    (fun (subject, runs) ->
      let arena = subject () in
      List.iteri
        (fun i run ->
          check cb (Printf.sprintf "run %d: shared arena = fresh arena" i) true
            (run arena = run (subject ())))
        runs)
    arena_runs

let test_arena_result_kept () =
  let arena = stuck_arena () in
  let (kept, _, _, _) = stuck arena in
  let copy : Engine.result = Marshal.from_string (Marshal.to_string kept []) 0 in
  let second = unstuck arena in
  check cb "run 1's result unchanged by run 2" true (kept = copy);
  check cb "run 2 on the arena = run 2 on a fresh one" true (second = unstuck (stuck_arena ()))

(* One construction per arena, rewound before each run.  Every registry
   lock runs a mixed sequence on one arena — clean runs, a per-process and
   a system-wide crash plan, an abort plan with recorded events, a run cut
   by [max_steps] — and each run must equal the same run on a fresh arena.
   Two requests per process, so node-allocating locks (mcs, clh, kport,
   the WR family with and without pools) reuse and recycle what the run
   before them allocated. *)
let twice lock ~pid = Harness.standard_body ~lock ~requests:2 pid

(* A cell a run allocates, per node-allocating lock, named by the lock's
   own count of its nodes: a crash plan that strikes it by name sees the
   names a fresh construction gives only if that count was rewound. *)
let node_cells =
  [
    ("mcs", "mcs.n2.locked");
    ("mcs-be", "mcs-be.n2.locked");
    ("clh", "clh.n2");
    ("ramaraju", "ramaraju.n2.next");
    ("wr", "wr.n2.next");
  ]

(* Plans are stateful, so each run builds its own.  Each run comes with
   what its result must show, so the sequence covers what it names. *)
let built_sequence key : (string * (Engine.result -> bool) * (Engine.arena -> observed)) list =
  let run ?(max_steps = 3_000) ?(crash = fun () -> Crash.none) ?(abort = fun () -> Abort.none)
      ?record ~state_key_at ~decisions () arena =
    observe ?record ~crash:(crash ()) ~abort:(abort ()) ~max_steps ~state_key_at ~decisions arena
  in
  let clean (r : Engine.result) = Engine.total_completed r = 6 && r.Engine.total_crashes = 0 in
  [
    ("clean", clean, run ~state_key_at:8 ~decisions:[||] ());
    ( "per-process crashes",
      (fun r -> r.Engine.total_crashes > 0 && r.Engine.system_crashes = 0),
      run
        ~crash:(fun () -> Crash.random ~seed:3 ~rate:0.05 ~max_crashes:3 ())
        ~state_key_at:20 ~decisions:[| 2; 1; 1; 0; 2; 2; 1 |] () );
    ( "system-wide crash",
      (fun r -> r.Engine.system_crashes = 1),
      run ~crash:(fun () -> Crash.system_at ~step:25) ~state_key_at:30 ~decisions:[| 1; 2 |] () );
    ( "abort plan",
      (fun r -> r.Engine.aborts <> [] && r.Engine.events <> []),
      run ~record:true
        ~abort:(fun () -> Abort.impatient ~timeout_steps:2 ())
        ~state_key_at:12 ~decisions:[| 0; 2; 1 |] () );
    ( "cut by max_steps",
      (fun r -> r.Engine.timed_out && r.Engine.total_crashes > 0),
      run ~max_steps:40
        ~crash:(fun () -> Crash.random ~seed:5 ~rate:0.1 ~max_crashes:2 ())
        ~state_key_at:15 ~decisions:[| 1; 1; 2; 0 |] () );
    ("clean again", clean, run ~state_key_at:40 ~decisions:[| 2; 0; 1; 2; 0; 1 |] ());
  ]
  @
  match List.assoc_opt key node_cells with
  | None -> []
  | Some cell ->
      [
        ( "crash on a node the run allocated",
          (fun r -> r.Engine.total_crashes > 0),
          run
            ~crash:(fun () ->
              Crash.all (List.init 3 (fun pid -> Crash.on_cell ~pid ~cell ~occurrence:0 Crash.After)))
            ~state_key_at:10 ~decisions:[| 1; 2; 0 |] () );
      ]

let test_built_arena_matches_construction () =
  List.iter
    (fun (spec : Rme.Spec.t) ->
      let subject () = Engine.arena ~n:3 ~model:Memory.CC ~setup:spec.Rme.Spec.make ~body:twice in
      let arena = subject () in
      List.iter
        (fun (name, shows, run) ->
          let what = Printf.sprintf "%s, %s" spec.Rme.Spec.key name in
          let ((res, _, _, keys) as rewound) = run arena in
          check cb (what ^ ": the run shows what it names") true (shows res && keys <> []);
          check cb (what ^ ": rewound arena = fresh arena") true (rewound = run (subject ())))
        (built_sequence spec.Rme.Spec.key))
    Rme.Spec.all

(* ------------------------------------------------------------------ *)
(* Online folds                                                         *)
(* ------------------------------------------------------------------ *)

(* Three processes misuse one lock: p0 crashes in its passage, enters the
   CS without restarting it, aborts its wait for the lock and waits
   again; p1 and p2 both acquire it with no failure to excuse the
   overlap, and p2's release overtakes p0.  Every process ends parked. *)
let rogue_setup ctx =
  let mem = Engine.Ctx.memory ctx in
  let lock = Engine.Ctx.register_lock ctx "rogue" in
  (lock, Memory.alloc mem ~name:"restarted" 0, Memory.alloc mem ~name:"never" 0)

let rogue_body (lock, restarted, never) ~pid =
  let note = Api.note in
  (match pid with
  | 0 when Api.read restarted = 0 ->
      Api.write restarted 1;
      note (Event.Seg Event.Req_begin);
      note (Event.Custom "w")
  | 0 ->
      note (Event.Seg Event.Cs_begin);
      note (Event.Lock_enter lock);
      note (Event.Abort_done lock);
      note (Event.Lock_enter lock)
  | _ ->
      note (Event.Lock_enter lock);
      note (Event.Lock_acquired lock);
      note (Event.Level 2);
      if pid = 2 then begin
        note (Event.Lock_release lock);
        note (Event.Lock_released lock)
      end);
  Api.spin_until never (Api.Eq 1)

(* A fold input: a recorded event, or the windows a process had open at
   one of its instructions ([on_op]'s view, which the history lacks). *)
type fold_input = Ev of Event.t | Windows of int * int list

(* Runs whose inputs leave every fold's state away from its start values:
   the stuck and cut subjects, a system-wide crash, an abort plan cut
   mid-run, and the rogue subject under an abort plan.  Each is a run on
   a fresh arena of the subject, recorded, with [on_op] logging the open
   windows, under the schedule [decisions] names. *)
let dirty_runs () =
  let recorded ?(crash = Crash.none) ?(abort = Abort.none) ?(max_steps = 20_000)
      ?(decisions = [||]) arena =
    let windows = ref [] in
    let on_op (i : Crash.op_info) =
      if i.unsafe_wrt <> [] then windows := (i.step, Windows (i.pid, i.unsafe_wrt)) :: !windows
    in
    let res =
      Engine.run_in
        (Engine.opts ~max_steps ~record:true ~on_op ())
        ~arena ~crash ~abort
        (Trace { decisions; key_at = -1 })
    in
    (* An instruction's windows precede what happened at its step. *)
    let events = List.map (fun ev -> (Event.step ev, Ev ev)) res.Engine.events in
    let inputs = List.stable_sort (fun (a, _) (b, _) -> compare a b) (List.rev !windows @ events) in
    (res, List.map snd inputs)
  in
  let twice_arena key = Engine.arena ~n:3 ~model:Memory.CC ~setup:(lock_setup key) ~body:twice in
  [
    ( "stuck",
      recorded ~crash:(Crash.on_kind ~pid:1 ~kind:Api.Write ~occurrence:0 Crash.After)
        (stuck_arena ()) );
    ( "cut",
      recorded ~max_steps:60
        ~crash:(Crash.random ~seed:2 ~rate:0.05 ~max_crashes:3 ())
        ~decisions:[| 0; 1; 2; 2; 1; 0; 1 |] (wr_arena ()) );
    ("system crash", recorded ~max_steps:40 ~crash:(Crash.system_at ~step:25) (wr_arena ()));
    ( "abort plan",
      recorded ~max_steps:150 ~abort:(Abort.impatient ~timeout_steps:2 ()) (twice_arena "wr-abort")
    );
    ( "rogue",
      recorded
        ~crash:(Crash.on_custom_note ~pid:0 ~tag:"w" ~occurrence:0 Crash.After)
        ~abort:(Abort.impatient ~timeout_steps:2 ())
        (Engine.arena ~n:3 ~model:Memory.CC ~setup:rogue_setup ~body:rogue_body) );
  ]

(* Feed a run's inputs to [f] through the hooks the engine calls: each
   note and crash as it happened, each window as it was open, and one RMR
   and one step of the noting process per note.  A signal's op index is
   not in the history; it replays as 0. *)
let replay_folds (f : Folds.t) inputs =
  List.iter
    (function
      | Windows (pid, locks) -> List.iter (Folds.Occupancy.open_unsafe f.Folds.occupancy pid) locks
      | Ev (Event.Note { step; pid; note = Event.Abort_signal; _ }) ->
          Folds.Aborts.signal f.Folds.aborts pid ~step ~origin:0
      | Ev (Event.Note { step; pid; super; note }) ->
          Folds.Aborts.step f.Folds.aborts pid;
          Folds.charge f pid 1 ~abort:true;
          Folds.note f pid note ~step ~super ~abort:true
      | Ev (Event.Crash { step; pid; _ }) -> Folds.crash f pid ~step ~abort:true
      | Ev (Event.Sys_crash _ | Event.Op _) -> ())
    inputs

(* Every field of every fold, [f]'s against [g]'s: [(name, equal)], the
   vectors compared by their contents.  The record patterns name every
   field, so a field added to a fold does not compile here until it is
   compared. *)
let fold_fields (f : Folds.t) (g : Folds.t) =
  let vec v w = Vec.to_list v = Vec.to_list w in
  let { Folds.Occupancy.unsafe_open; holding; occupancy; occupancy_max; unsafe_crashes } =
    f.Folds.occupancy
  and o = g.Folds.occupancy in
  let { Folds.App_cs.in_cs; count; max } = f.Folds.app_cs and a = g.Folds.app_cs in
  let { Folds.Passages.in_passage; rmr; super; start; closed; level_max } = f.Folds.passages
  and ps = g.Folds.passages in
  let { Folds.Recovery.crash_step; skipped } = f.Folds.recovery and r = g.Folds.recovery in
  let { Folds.Weak_me.outstanding; out_since; crash_seq; unsafe_log; breaches } = f.Folds.weak_me
  and w = g.Folds.weak_me in
  let { Folds.Wakeup.waits_on; overtaken; last_holder; overtakes } = f.Folds.wakeup
  and k = g.Folds.wakeup in
  let ab = f.Folds.aborts and b = g.Folds.aborts in
  let { Folds.Aborts.flag; signal_step; origin; own; rmr = ab_rmr; streak; depth; since; stats } =
    ab
  in
  [
    ("occupancy.unsafe_open", unsafe_open = o.unsafe_open);
    ("occupancy.holding", holding = o.holding);
    ("occupancy.occupancy", occupancy = o.occupancy);
    ("occupancy.occupancy_max", occupancy_max = o.occupancy_max);
    ("occupancy.unsafe_crashes", unsafe_crashes = o.unsafe_crashes);
    ("app_cs.in_cs", in_cs = a.in_cs);
    ("app_cs.count", count = a.count);
    ("app_cs.max", max = a.max);
    ("passages.in_passage", in_passage = ps.in_passage);
    ("passages.rmr", rmr = ps.rmr);
    ("passages.super", super = ps.super);
    ("passages.start", start = ps.start);
    ("passages.closed", Array.for_all2 vec closed ps.closed);
    ("passages.level_max", level_max = ps.level_max);
    ("recovery.crash_step", crash_step = r.crash_step);
    ("recovery.skipped", skipped = r.skipped);
    ("weak_me.outstanding", outstanding = w.outstanding);
    ("weak_me.out_since", out_since = w.out_since);
    ("weak_me.crash_seq", crash_seq = w.crash_seq);
    ("weak_me.unsafe_log", vec unsafe_log w.unsafe_log);
    ("weak_me.breaches", breaches = w.breaches);
    ("wakeup.waits_on", waits_on = k.waits_on);
    ("wakeup.overtaken", overtaken = k.overtaken);
    ("wakeup.last_holder", last_holder = k.last_holder);
    ("wakeup.overtakes", vec overtakes k.overtakes);
    ("aborts.flag", flag = b.flag);
    ("aborts.signal_step", signal_step = b.signal_step);
    ("aborts.origin", origin = b.origin);
    ("aborts.own", own = b.own);
    ("aborts.rmr", ab_rmr = b.rmr);
    ("aborts.streak", streak = b.streak);
    ("aborts.depth", depth = b.depth);
    ("aborts.since", since = b.since);
    ("aborts.stats", vec stats b.stats);
  ]

(* Each subject's history leaves some fields away from a fresh fold's,
   together every field; [Folds.reset] brings every one back. *)
let test_fold_reset () =
  let dirtied = Hashtbl.create 64 in
  List.iter
    (fun (name, ((res : Engine.result), inputs)) ->
      let n = Array.length res.Engine.procs and nlocks = Array.length res.Engine.locks in
      let f = Folds.create ~n ~nlocks in
      replay_folds f inputs;
      List.iter
        (fun (field, same) -> if not same then Hashtbl.replace dirtied field ())
        (fold_fields f (Folds.create ~n ~nlocks));
      Folds.reset f;
      List.iter
        (fun (field, same) -> check cb (Printf.sprintf "%s: %s reset" name field) true same)
        (fold_fields f (Folds.create ~n ~nlocks)))
    (dirty_runs ());
  let clean =
    List.filter_map
      (fun (field, _) -> if Hashtbl.mem dirtied field then None else Some field)
      (let f = Folds.create ~n:1 ~nlocks:1 in
       fold_fields f f)
  in
  check Alcotest.(list string) "fields no run dirtied" [] clean

(* A lock note naming an id the arena did not register fails loudly, each
   of the six the folds read alike. *)
let test_unregistered_lock_note () =
  let notes id =
    Event.
      [
        Lock_enter id;
        Lock_acquired id;
        Lock_release id;
        Lock_released id;
        Abort_done id;
        Abort_lost_race id;
      ]
  in
  List.iter
    (fun note ->
      let id =
        match note with
        | Event.Lock_enter id
        | Lock_acquired id
        | Lock_release id
        | Lock_released id
        | Abort_done id
        | Abort_lost_race id ->
            id
        | _ -> assert false
      in
      let msg =
        Fmt.str "Engine: note %a names lock %d, but 1 lock(s) are registered" Event.pp_note note id
      in
      Alcotest.check_raises (Fmt.str "%a" Event.pp_note note) (Invalid_argument msg) (fun () ->
          ignore
            (Engine.run ~n:1 ~model:Memory.CC ~sched:(Sched.round_robin ()) ~crash:Crash.none
               ~setup:(fun ctx -> ignore (Engine.Ctx.register_lock ctx "one"))
               ~body:(fun () ~pid:_ -> Api.note note)
               ())))
    (notes 7 @ notes (-1))

let () =
  Alcotest.run "rme_sim"
    [
      ( "memory",
        [
          Alcotest.test_case "cc read caching" `Quick test_cc_read_caching;
          Alcotest.test_case "cc write invalidates" `Quick test_cc_write_invalidates;
          Alcotest.test_case "cc failed cas keeps caches" `Quick test_cc_failed_cas_keeps_caches;
          Alcotest.test_case "cc successful cas invalidates" `Quick test_cc_successful_cas_invalidates;
          Alcotest.test_case "dsm home locality" `Quick test_dsm_home_locality;
          Alcotest.test_case "fas faa semantics" `Quick test_fas_faa_semantics;
        ] );
      ( "crash-plans",
        [
          Alcotest.test_case "none" `Quick test_crash_none;
          Alcotest.test_case "at-op" `Quick test_crash_at_op;
          Alcotest.test_case "on-kind occurrence" `Quick test_crash_on_kind_occurrence;
          Alcotest.test_case "random budget" `Quick test_crash_random_budget;
          Alcotest.test_case "async-at" `Quick test_crash_async_at;
          Alcotest.test_case "all combines" `Quick test_crash_all_combines;
        ] );
      ( "schedulers",
        [
          Alcotest.test_case "round robin cycles" `Quick test_round_robin_cycles;
          Alcotest.test_case "round robin skips blocked" `Quick test_round_robin_skips_blocked;
          Alcotest.test_case "random is fair" `Quick test_random_sched_is_fair;
          Alcotest.test_case "burst bursts" `Quick test_burst_sched_bursts;
          Alcotest.test_case "random deterministic" `Quick test_random_sched_deterministic;
          Alcotest.test_case "ready set ascending" `Quick test_ready_set_ascending;
        ] );
      ( "engine",
        [
          Alcotest.test_case "runs to completion" `Quick test_engine_runs_to_completion;
          Alcotest.test_case "counts passages" `Quick test_engine_counts_passages;
          Alcotest.test_case "restart after crash" `Quick test_engine_restarts_after_crash;
          Alcotest.test_case "crash-after applies op" `Quick test_engine_crash_after_applies_op;
          Alcotest.test_case "crash-before skips op" `Quick test_engine_crash_before_skips_op;
          Alcotest.test_case "op_index continues across restarts" `Quick
            test_op_index_continues_across_restarts;
          Alcotest.test_case "spin park and wake" `Quick test_engine_spin_park_and_wake;
          Alcotest.test_case "detects deadlock" `Quick test_engine_detects_deadlock;
          Alcotest.test_case "async crash unblocks parked" `Quick test_engine_async_crash_unblocks_parked;
          Alcotest.test_case "rmr accounting" `Quick test_engine_rmr_accounting_simple;
          Alcotest.test_case "rmr by kind sums" `Quick test_rmr_by_kind_sums;
          Alcotest.test_case "records events" `Quick test_engine_records_events;
          Alcotest.test_case "max steps times out" `Quick test_engine_max_steps_times_out;
          Alcotest.test_case "get_done survives crash" `Quick test_engine_get_done_survives_crash;
          Alcotest.test_case "propagates body exceptions" `Quick test_engine_propagates_body_exceptions;
          Alcotest.test_case "rejects a swallowed crash" `Quick test_engine_rejects_swallowed_crash;
          Alcotest.test_case "mid-run allocation" `Quick test_engine_midrun_allocation;
          Alcotest.test_case "parks on a late cell" `Quick test_engine_parks_on_late_cell;
          Alcotest.test_case "percentiles" `Quick test_percentiles;
          Alcotest.test_case "latency recorded" `Quick test_latency_recorded;
        ] );
      ( "arena",
        [
          Alcotest.test_case "shared arena matches fresh" `Quick test_arena_matches_fresh;
          Alcotest.test_case "kept result survives the next run" `Quick test_arena_result_kept;
          Alcotest.test_case "built arena matches construction" `Quick
            test_built_arena_matches_construction;
        ] );
      ( "folds",
        [
          Alcotest.test_case "reset restores the created state" `Quick test_fold_reset;
          Alcotest.test_case "unregistered lock note" `Quick test_unregistered_lock_note;
        ] );
    ]
