(* Mutation testing: deliberately break each algorithm in a characteristic
   way and assert that the test battery's checkers CATCH the break.  This
   guards the guards — a checker that accepts these mutants has lost its
   teeth, and a future refactor that weakens an invariant will trip one of
   these before it trips a user.

   Each mutant is a copy of the real algorithm with one line changed; the
   mutation is documented inline. *)

open Rme_sim
open Rme_locks

let check = Alcotest.check

let cb = Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Mutant 1: WR-Lock that trusts the CAS outcome instead of re-reading  *)
(* the next field.  §4.3's first idea undone: the link step is no       *)
(* longer idempotent, so a crash between the CAS and the spin can hang  *)
(* or skip the wait.                                                    *)
(* ------------------------------------------------------------------ *)

let wr_trusting_cas ctx =
  let mem = Engine.Ctx.memory ctx in
  let n = Engine.Ctx.n ctx in
  let id = Engine.Ctx.register_lock ctx "mut-wr" in
  let reg = Nodes.create_registry ctx ~prefix:"mut-wr" in
  let tail = Memory.alloc mem ~name:"mut-wr.tail" Nodes.null in
  let cell_array field init =
    Array.init n (fun i -> Memory.alloc mem ~home:i ~name:(Printf.sprintf "mut-wr.%s[%d]" field i) init)
  in
  let state = cell_array "state" 0 in
  let mine = cell_array "mine" Nodes.null in
  let pred = cell_array "pred" Nodes.null in
  let exit_segment ~pid =
    Api.write state.(pid) 4;
    let m = Api.read mine.(pid) in
    let node = Nodes.get reg m in
    let (_ : bool) = Api.cas tail ~expect:m ~value:Nodes.null in
    let (_ : bool) = Api.cas node.Nodes.next ~expect:Nodes.null ~value:m in
    let next = Api.read node.Nodes.next in
    if next <> m then Api.write (Nodes.get reg next).Nodes.locked 0;
    Api.write state.(pid) 0
  in
  let acquire ~pid =
    let s = Api.read state.(pid) in
    if s = 2 && Api.read pred.(pid) = Api.read mine.(pid) then exit_segment ~pid
    else if s = 4 then exit_segment ~pid;
    if Api.read state.(pid) = 0 then begin
      Api.write mine.(pid) Nodes.null;
      Api.write state.(pid) 1
    end;
    if Api.read state.(pid) = 1 then begin
      if Api.read mine.(pid) = Nodes.null then
        Api.write mine.(pid) (Nodes.fresh reg ~owner:pid).Nodes.id;
      let m = Api.read mine.(pid) in
      let node = Nodes.get reg m in
      Api.write node.Nodes.next Nodes.null;
      Api.write node.Nodes.locked 1;
      Api.write pred.(pid) m;
      Api.write state.(pid) 2
    end;
    if Api.read state.(pid) = 2 then begin
      let m = Api.read mine.(pid) in
      let node = Nodes.get reg m in
      if Api.read pred.(pid) = m then begin
        let temp = Api.fas_open_unsafe ~lock:id tail m in
        Api.write_close_unsafe ~lock:id pred.(pid) temp
      end;
      let p = Api.read pred.(pid) in
      if p <> Nodes.null then begin
        let pnode = Nodes.get reg p in
        (* MUTATION: branch on the CAS outcome instead of re-reading. *)
        if Api.cas pnode.Nodes.next ~expect:Nodes.null ~value:m then
          Api.spin_until node.Nodes.locked (Api.Eq 0)
      end;
      Api.write state.(pid) 3
    end
  in
  Lock.instrument ~id ~name:"mut-wr" ~acquire ~release:(fun ~pid -> exit_segment ~pid) ()

let test_mutant_wr_trusting_cas () =
  (* Crash the process right after the link CAS: on re-execution the CAS
     fails (field already set), the mutant skips the wait and barges into
     the CS — occupancy 2 with zero unsafe failures. *)
  let caught = ref false in
  (* p1 heads the queue under round-robin; p2 and p0 have predecessors and
     execute the vulnerable link CAS. *)
  List.iter
    (fun victim ->
      for nth = 0 to 60 do
        if not !caught then begin
          let crash = Crash.at_op ~pid:victim ~nth Crash.After in
          let cs ~pid:_ = for _ = 1 to 60 do Api.yield () done in
          let res =
            Harness.run_lock ~record:true ~cs ~n:3 ~model:Memory.CC ~sched:(Sched.round_robin ())
              ~crash ~requests:3 ~make:wr_trusting_cas ~max_steps:300_000 ()
          in
          let stats = res.Engine.locks.(0) in
          let bad =
            res.Engine.deadlocked || res.Engine.timed_out
            || stats.Engine.max_occupancy > 1 + stats.Engine.unsafe_crashes
          in
          if bad then caught := true
        end
      done)
    [ 2; 0 ];
  check cb "battery catches the CAS-trusting mutant" true !caught

(* ------------------------------------------------------------------ *)
(* Mutant 2: splitter whose release is performed by slow processes too  *)
(* (the owner check dropped) — the fast path loses its exclusivity.     *)
(* ------------------------------------------------------------------ *)

let sa_leaky_splitter ctx =
  let mem = Engine.Ctx.memory ctx in
  let n = Engine.Ctx.n ctx in
  let id = Engine.Ctx.register_lock ctx "mut-sa" in
  let filter = Wr_lock.create ~name:"mut-sa.filter" ctx in
  let flock = Wr_lock.lock filter in
  let owner = Memory.alloc mem ~name:"mut-sa.owner" 0 in
  let typ = Array.init n (fun i -> Memory.alloc mem ~home:i ~name:(Printf.sprintf "mut-sa.t[%d]" i) 0) in
  let core = Bakery.make_named ~name:"mut-sa.core" ctx in
  let arb = Arbitrator.create ~name:"mut-sa.arb" ctx in
  let acquire ~pid =
    flock.Lock.acquire ~pid;
    if Api.read typ.(pid) <> 1 then ignore (Api.cas owner ~expect:0 ~value:(pid + 1));
    if Api.read owner <> pid + 1 then begin
      Api.write typ.(pid) 1;
      core.Lock.acquire ~pid
    end;
    Arbitrator.acquire arb (if Api.read typ.(pid) = 1 then Lock.Right else Lock.Left) ~pid
  in
  let release ~pid =
    let t = Api.read typ.(pid) in
    Arbitrator.release arb (if t = 1 then Lock.Right else Lock.Left) ~pid;
    if t = 1 then core.Lock.release ~pid;
    (* MUTATION: every exit clears the splitter, not just the fast path's
       owner — a waiting slow process can now promote itself while the
       real owner still runs. *)
    Api.write owner 0;
    Api.write typ.(pid) 0;
    flock.Lock.release ~pid
  in
  Lock.instrument ~id ~name:"mut-sa" ~acquire ~release ()

let test_mutant_leaky_splitter () =
  (* Under an unsafe filter failure two processes reach the splitter; with
     the leaky release, eventually two attack the arbitrator's Left side
     concurrently and mutual exclusion of the whole lock breaks. *)
  let caught = ref false in
  let seeds = [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  List.iter
    (fun seed ->
      if not !caught then begin
        let crash =
          Crash.fas_gap ~seed ~rate:0.6 ~max_crashes:6 ~cell_suffix:".tail" ()
        in
        let cs ~pid:_ = for _ = 1 to 20 do Api.yield () done in
        let res =
          Harness.run_lock ~cs ~n:6 ~model:Memory.CC ~sched:(Sched.random ~seed) ~crash
            ~requests:6 ~make:sa_leaky_splitter ~max_steps:2_000_000 ()
        in
        if res.Engine.cs_max > 1 || res.Engine.deadlocked || res.Engine.timed_out then
          caught := true
      end)
    seeds;
  check cb "battery catches the leaky splitter" true !caught

(* ------------------------------------------------------------------ *)
(* Mutant 3: bakery that releases in the BCSR-unsafe order (state after *)
(* number) — a crash between the two exit writes lets the restart       *)
(* re-enter a CS it already gave away.                                  *)
(* ------------------------------------------------------------------ *)

let bakery_unsafe_exit ctx =
  let mem = Engine.Ctx.memory ctx in
  let n = Engine.Ctx.n ctx in
  let id = Engine.Ctx.register_lock ctx "mut-bak" in
  let arr field init =
    Array.init n (fun i -> Memory.alloc mem ~home:i ~name:(Printf.sprintf "mut-bak.%s[%d]" field i) init)
  in
  let choosing = arr "choosing" 0 in
  let number = arr "number" 0 in
  let state = arr "state" 0 in
  let acquire ~pid =
    let s = Api.read state.(pid) in
    (* MUTATION: BCSR keyed on the state alone, without the number<>0
       corroboration. *)
    if s = 3 then ()
    else begin
      if s = 0 || Api.read number.(pid) = 0 then begin
        Api.write choosing.(pid) 1;
        let maxn = ref 0 in
        for j = 0 to n - 1 do
          let nj = Api.read number.(j) in
          if nj > !maxn then maxn := nj
        done;
        Api.write number.(pid) (!maxn + 1);
        Api.write choosing.(pid) 0
      end;
      let my = Api.read number.(pid) in
      for j = 0 to n - 1 do
        if j <> pid then begin
          Api.spin_until choosing.(j) (Api.Eq 0);
          let precedes nj = nj <> 0 && (nj < my || (nj = my && j < pid)) in
          Api.spin_until number.(j) (Api.Pred (fun v -> not (precedes v)))
        end
      done;
      Api.write state.(pid) 3
    end
  in
  let release ~pid =
    (* MUTATION: number released before the state leaves InCS. *)
    Api.write number.(pid) 0;
    Api.yield ();
    Api.write state.(pid) 0
  in
  Lock.instrument ~id ~name:"mut-bak" ~acquire ~release ()

let test_mutant_bakery_exit_order () =
  (* Crash in the exit gap, long CSs: the restart claims BCSR re-entry into
     a critical section whose ticket it already released. *)
  let caught = ref false in
  for nth = 0 to 80 do
    if not !caught then begin
      let crash = Crash.at_op ~pid:0 ~nth Crash.After in
      let cs ~pid:_ = for _ = 1 to 25 do Api.yield () done in
      let res =
        Harness.run_lock ~cs ~n:3 ~model:Memory.CC ~sched:(Sched.round_robin ()) ~crash
          ~requests:3 ~make:bakery_unsafe_exit ~max_steps:300_000 ()
      in
      if res.Engine.cs_max > 1 then caught := true
    end
  done;
  check cb "battery catches the exit-order mutant" true !caught

(* ------------------------------------------------------------------ *)
(* Mutant 4: arbitrator that rings the doorbell before yielding the     *)
(* turn — the lost-wakeup protocol inverted.                            *)
(* ------------------------------------------------------------------ *)

let arb_ring_before_yield ctx =
  let mem = Engine.Ctx.memory ctx in
  let n = Engine.Ctx.n ctx in
  let want = Array.init 2 (fun s -> Memory.alloc mem ~name:(Printf.sprintf "mut-arb.w[%d]" s) 0) in
  let turn = Memory.alloc mem ~name:"mut-arb.turn" 0 in
  let occupant = Array.init 2 (fun s -> Memory.alloc mem ~name:(Printf.sprintf "mut-arb.o[%d]" s) 0) in
  let spin = Array.init n (fun p -> Memory.alloc mem ~home:p ~name:(Printf.sprintf "mut-arb.s[%d]" p) 0) in
  let wake side = let q = Api.read occupant.(side) in if q <> 0 then Api.write spin.(q - 1) 0 in
  let blocked s = Api.read want.(1 - s) = 1 && Api.read turn = s in
  let acquire ~pid =
    let s = pid land 1 in
    Api.write occupant.(s) (pid + 1);
    Api.write want.(s) 1;
    (* MUTATION: wake the other side BEFORE yielding the turn. *)
    wake (1 - s);
    Api.write turn s;
    while blocked s do
      Api.write spin.(pid) 1;
      if blocked s then Api.spin_until spin.(pid) (Api.Eq 0)
    done
  in
  let release ~pid =
    let s = pid land 1 in
    Api.write want.(s) 0;
    wake (1 - s);
    Api.write occupant.(s) 0
  in
  { Lock.name = "mut-arb"; acquire; release; try_abort = None }

let test_mutant_arbitrator_wake_order () =
  (* The explorer hunts the lost wake-up: some interleaving leaves one side
     asleep forever (deadlock) because the wake fired before the turn
     yield that would have unblocked it. *)
  let outcome =
    Rme_check.Explore.explore ~max_runs:40_000 ~max_steps:4_000 ~n:2 ~model:Memory.CC
      ~crash:(fun () -> Crash.none)
      ~setup:arb_ring_before_yield
      ~body:(fun lock ~pid ->
        while Api.completed_requests () < 2 do
          Api.note (Event.Seg Event.Req_begin);
          lock.Lock.acquire ~pid;
          Api.note (Event.Seg Event.Cs_begin);
          Api.note (Event.Seg Event.Cs_end);
          lock.Lock.release ~pid;
          Api.note (Event.Seg Event.Req_done)
        done)
      ~check:(fun res ->
        if res.Engine.deadlocked then Some "deadlock"
        else if res.Engine.cs_max > 1 then Some "ME"
        else None)
      ()
  in
  check cb "explorer catches the wake-order mutant" true (outcome.Rme_check.Explore.violation <> None)

let () =
  Alcotest.run "mutations"
    [
      ( "mutants",
        [
          Alcotest.test_case "wr trusting cas" `Quick test_mutant_wr_trusting_cas;
          Alcotest.test_case "leaky splitter" `Quick test_mutant_leaky_splitter;
          Alcotest.test_case "bakery exit order" `Quick test_mutant_bakery_exit_order;
          Alcotest.test_case "arbitrator wake order" `Quick test_mutant_arbitrator_wake_order;
        ] );
    ]
