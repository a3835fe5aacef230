(* Tests for the §7.2 memory-reclamation algorithm (Algorithm 4): the
   new_node/retire contract, crash-idempotence, the bounded-space guarantee,
   and safety of node reuse when plugged into WR-Lock under crash storms. *)

open Rme_sim
open Rme_locks

let check = Alcotest.check

let ci = Alcotest.int

let cb = Alcotest.bool

(* Drive the allocator directly from a single simulated process. *)
let run_alloc ~n ~body () =
  let out = ref None in
  let res =
    Engine.run ~n ~model:Memory.CC ~sched:(Sched.round_robin ()) ~crash:Crash.none
      ~setup:(fun ctx ->
        let r = Reclaim.create ctx in
        let reg = Nodes.create_registry ctx ~prefix:"t" in
        out := Some reg;
        (r, Reclaim.alloc r reg))
      ~body:(fun (r, alloc) ~pid -> body r alloc ~pid)
      ()
  in
  (res, Option.get !out)

let test_same_node_until_retire () =
  let ids = ref [] in
  let _ =
    run_alloc ~n:2
      ~body:(fun r alloc ~pid ->
        if pid = 0 && Api.completed_requests () < 1 then begin
          Api.note (Event.Seg Event.Req_begin);
          let a = alloc ~pid in
          let b = alloc ~pid in
          Reclaim.retire r ~pid;
          let c = alloc ~pid in
          ids := [ a.Nodes.id; b.Nodes.id; c.Nodes.id ];
          Api.note (Event.Seg Event.Req_done)
        end)
      ()
  in
  match !ids with
  | [ a; b; c ] ->
      check ci "same node before retire" a b;
      check cb "fresh node after retire" true (c <> a)
  | _ -> Alcotest.fail "allocation did not run"

let test_retire_without_alloc_is_noop () =
  let ok = ref false in
  let _ =
    run_alloc ~n:1
      ~body:(fun r alloc ~pid ->
        if Api.completed_requests () < 1 then begin
          Api.note (Event.Seg Event.Req_begin);
          Reclaim.retire r ~pid;
          Reclaim.retire r ~pid;
          let a = alloc ~pid in
          ok := a.Nodes.id > 0;
          Api.note (Event.Seg Event.Req_done)
        end)
      ()
  in
  check cb "allocator survives spurious retires" true !ok

let test_pool_is_bounded () =
  (* Many allocate/retire cycles must not allocate more than the two pools
     of 2n nodes each per process. *)
  let n = 3 in
  let res, reg =
    run_alloc ~n
      ~body:(fun r alloc ~pid ->
        while Api.completed_requests () < 30 do
          Api.note (Event.Seg Event.Req_begin);
          let (_ : Nodes.node) = alloc ~pid in
          Reclaim.retire r ~pid;
          Api.note (Event.Seg Event.Req_done)
        done)
      ()
  in
  check cb "completed" true (Engine.total_completed res = n * 30);
  check ci "space bounded at 4n^2" (2 * 2 * n * n) (Nodes.count reg)

let test_nodes_cycle_through_pool () =
  (* Within one pool generation the 2n slots are served round-robin. *)
  let n = 2 in
  let seen = ref [] in
  let _ =
    run_alloc ~n
      ~body:(fun r alloc ~pid ->
        if pid = 0 then
          while Api.completed_requests () < 4 do
            Api.note (Event.Seg Event.Req_begin);
            let node = alloc ~pid in
            seen := node.Nodes.id :: !seen;
            Reclaim.retire r ~pid;
            Api.note (Event.Seg Event.Req_done)
          done
        else
          while Api.completed_requests () < 4 do
            Api.note (Event.Seg Event.Req_begin);
            let (_ : Nodes.node) = alloc ~pid in
            Reclaim.retire r ~pid;
            Api.note (Event.Seg Event.Req_done)
          done)
      ()
  in
  let distinct = List.sort_uniq compare !seen in
  check ci "4 distinct slots over 4 requests (pool of 2n = 4)" 4 (List.length distinct)

(* ------------------------------------------------------------------ *)
(* WR-Lock over the reclamation pool                                   *)
(* ------------------------------------------------------------------ *)

let wr_reclaim_make ?(notify = false) () ctx =
  let r = Reclaim.create ~notify ctx in
  Wr_lock.lock
    (Wr_lock.create ~name:"wrr" ~alloc:(Reclaim.alloc r)
       ~retire:(fun ~pid -> Reclaim.retire r ~pid)
       ctx)

let wr_reclaim_internals ctx =
  let r = Reclaim.create ctx in
  let t =
    Wr_lock.create ~name:"wrr" ~alloc:(Reclaim.alloc r)
      ~retire:(fun ~pid -> Reclaim.retire r ~pid)
      ctx
  in
  (t, r)

let test_wr_reclaim_no_failures () =
  let res =
    Harness.run_lock ~n:5 ~model:Memory.CC ~sched:(Sched.random ~seed:3) ~crash:Crash.none
      ~requests:20 ~make:(wr_reclaim_make ()) ()
  in
  check cb "all done" true (Engine.total_completed res = 100);
  check ci "me" 1 res.Engine.cs_max

let test_wr_reclaim_notify_no_failures () =
  List.iter
    (fun model ->
      let res =
        Harness.run_lock ~n:5 ~model ~sched:(Sched.random ~seed:3) ~crash:Crash.none
          ~requests:20 ~make:(wr_reclaim_make ~notify:true ()) ()
      in
      check cb "all done" true (Engine.total_completed res = 100);
      check ci "me" 1 res.Engine.cs_max)
    [ Memory.CC; Memory.DSM ]

let test_notify_wait_is_dsm_local () =
  (* Under DSM the notification variant must not spin remotely: compare the
     worst passage RMRs of the two variants under allocation pressure (many
     requests force epoch waits). *)
  let max_rmr notify =
    let res =
      Harness.run_lock ~n:4 ~model:Memory.DSM ~sched:(Sched.random ~seed:7) ~crash:Crash.none
        ~requests:40 ~make:(wr_reclaim_make ~notify ()) ()
    in
    check cb "all done" true (Engine.total_completed res = 160);
    Engine.max_rmr res
  in
  let spin = max_rmr false and notif = max_rmr true in
  check cb (Printf.sprintf "notify (%d) bounded vs spin (%d)" notif spin) true (notif <= spin + 16)

let test_wr_reclaim_notify_crash_sweep () =
  (* Exhaustive crash points with the doorbell protocol in the loop. *)
  let n = 3 and requests = 3 in
  List.iter
    (fun point ->
      for nth = 0 to 70 do
        let crash = Crash.at_op ~pid:0 ~nth point in
        let res =
          Harness.run_lock ~n ~model:Memory.DSM ~sched:(Sched.round_robin ()) ~crash ~requests
            ~make:(wr_reclaim_make ~notify:true ()) ()
        in
        if res.Engine.deadlocked || res.Engine.timed_out then
          Alcotest.failf "notify variant stuck with crash at op %d" nth;
        check ci
          (Printf.sprintf "all satisfied (crash at %d)" nth)
          (n * requests) (Engine.total_completed res)
      done)
    [ Crash.Before; Crash.After ]

let test_wr_reclaim_space_bound () =
  let internals = ref None in
  let res =
    Engine.run ~n:4 ~model:Memory.CC ~sched:(Sched.random ~seed:9)
      ~crash:(Crash.random ~seed:4 ~rate:0.002 ~max_crashes:6 ())
      ~setup:(fun ctx ->
        let t, r = wr_reclaim_internals ctx in
        internals := Some (t, r);
        Wr_lock.lock t)
      ~body:(fun lock ~pid -> Harness.standard_body ~lock ~requests:25 pid)
      ()
  in
  let t, _ = Option.get !internals in
  check cb "all done" true (Engine.total_completed res = 100);
  (* 100 requests + crash retries served from 4 * 2 * 2n = 64 nodes. *)
  check ci "space bounded" (2 * 2 * 4 * 4) (Nodes.count (Wr_lock.registry t))

let qcheck_wr_reclaim_storm =
  QCheck.Test.make ~name:"wr over reclamation pools survives storms" ~count:40
    QCheck.(triple (int_range 2 6) (int_bound 9999) (int_bound 9999))
    (fun (n, seed, crash_seed) ->
      let crash = Crash.random ~seed:crash_seed ~rate:0.006 ~max_crashes:n () in
      let internals = ref None in
      let res =
        Engine.run ~max_steps:2_000_000 ~n ~model:Memory.CC ~sched:(Sched.random ~seed) ~crash
          ~setup:(fun ctx ->
            let t, r = wr_reclaim_internals ctx in
            internals := Some (t, r);
            Wr_lock.lock t)
          ~body:(fun lock ~pid -> Harness.standard_body ~lock ~requests:6 pid)
          ()
      in
      let t, _ = Option.get !internals in
      let stats = res.Engine.locks.(Wr_lock.lock_id t) in
      (not res.Engine.deadlocked) && (not res.Engine.timed_out)
      && Engine.total_completed res = n * 6
      && stats.Engine.max_occupancy <= 1 + stats.Engine.unsafe_crashes
      && Nodes.count (Wr_lock.registry t) <= 4 * n * n)

let test_wr_reclaim_crash_sweep () =
  (* Crash p0 at every instruction offset with the pooled allocator: the
     new_node idempotence must cover crashes between allocation and the
     mine[i] write. *)
  let n = 3 and requests = 3 in
  List.iter
    (fun point ->
      for nth = 0 to 70 do
        let crash = Crash.at_op ~pid:0 ~nth point in
        let res =
          Harness.run_lock ~n ~model:Memory.CC ~sched:(Sched.round_robin ()) ~crash ~requests
            ~make:(wr_reclaim_make ()) ()
        in
        if res.Engine.deadlocked || res.Engine.timed_out then
          Alcotest.failf "stuck with crash at op %d" nth;
        check ci
          (Printf.sprintf "all satisfied (crash at %d)" nth)
          (n * requests) (Engine.total_completed res)
      done)
    [ Crash.Before; Crash.After ]

let () =
  Alcotest.run "reclaim"
    [
      ( "allocator",
        [
          Alcotest.test_case "same node until retire" `Quick test_same_node_until_retire;
          Alcotest.test_case "spurious retire is noop" `Quick test_retire_without_alloc_is_noop;
          Alcotest.test_case "pool bounded" `Quick test_pool_is_bounded;
          Alcotest.test_case "slots cycle" `Quick test_nodes_cycle_through_pool;
        ] );
      ( "wr-integration",
        [
          Alcotest.test_case "no failures" `Quick test_wr_reclaim_no_failures;
          Alcotest.test_case "notify variant (cc + dsm)" `Quick test_wr_reclaim_notify_no_failures;
          Alcotest.test_case "notify wait is dsm-local" `Quick test_notify_wait_is_dsm_local;
          Alcotest.test_case "space bound under crashes" `Quick test_wr_reclaim_space_bound;
          Alcotest.test_case "crash sweep" `Slow test_wr_reclaim_crash_sweep;
          Alcotest.test_case "notify crash sweep" `Slow test_wr_reclaim_notify_crash_sweep;
        ] );
      ("property", [ QCheck_alcotest.to_alcotest qcheck_wr_reclaim_storm ]);
    ]
