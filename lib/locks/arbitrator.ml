open Rme_sim

let free = 0

let trying = 1

let in_cs = 2

let leaving = 3

type t = {
  id : int;
  notes : Lock.milestones;
  name : string;
  mem : Memory.t;
  want : Cell.t array;  (* per side *)
  turn : Cell.t;
  state : Cell.t array;  (* per side *)
  occupant : Cell.t array;  (* per side: pid + 1, 0 = none *)
  spin : Cell.t array;  (* per process, home = that process *)
}

let make_spin_pool ?(name = "arb") ctx =
  let mem = Engine.Ctx.memory ctx in
  Memory.alloc_per_process mem ~name:(name ^ ".spin") 0

let create ?(name = "arb") ?spin_pool ctx =
  let mem = Engine.Ctx.memory ctx in
  let id = Engine.Ctx.register_lock ctx name in
  let per_side field init = Memory.alloc_array mem ~len:2 ~name:(name ^ "." ^ field) init in
  {
    id;
    notes = Lock.milestones id;
    name;
    mem;
    want = per_side "want" 0;
    turn = Memory.alloc mem ~name:(name ^ ".turn") 0;
    state = per_side "state" free;
    occupant = per_side "occupant" 0;
    spin = (match spin_pool with Some p -> p | None -> make_spin_pool ~name ctx);
  }

let lock_id t = t.id

(* Wake whoever is registered as the opposite side's occupant.  Racing with
   registration is benign: the arm / re-check sequence on the waiter's side
   covers the window (see the waiting loop below). *)
let wake_side t s =
  let q = Api.read t.occupant.(s) in
  if q <> 0 then Api.write t.spin.(q - 1) 0

let exit_segment t s ~pid:_ =
  Api.write t.state.(s) leaving;
  Api.write t.want.(s) 0;
  wake_side t (1 - s);
  Api.write t.occupant.(s) 0;
  Api.write t.state.(s) free

(* The Peterson blocking condition for side [s]. *)
let blocked t s = Api.read t.want.(1 - s) = 1 && Api.read t.turn = s

let enter_segment t s ~pid =
  let st = Api.read t.state.(s) in
  if st = in_cs then () (* BCSR: crashed in CS, straight back in *)
  else begin
    (* Finish an interrupted exit first, then compete afresh. *)
    if st = leaving then exit_segment t s ~pid;
    Api.write t.state.(s) trying;
    Api.write t.occupant.(s) (pid + 1);
    Api.write t.want.(s) 1;
    Api.write t.turn s;
    (* Yielding the turn may unblock the other side. *)
    wake_side t (1 - s);
    (* Wait until not blocked.  Arm the spin cell, re-check, then sleep; the
       unblocker writes want/turn first and wakes afterwards, so a wake can
       never be lost.  The loop runs at most twice per passage: once woken,
       re-blocking would require this process itself to reset [turn]. *)
    while blocked t s do
      Api.write t.spin.(pid) 1;
      if blocked t s then Api.spin_until t.spin.(pid) (Api.Eq 0)
    done;
    Api.write t.state.(s) in_cs
  end

let acquire t side ~pid =
  Api.note t.notes.m_enter;
  enter_segment t (Lock.side_index side) ~pid;
  Api.note t.notes.m_acquired

let release t side ~pid =
  Api.note t.notes.m_release;
  exit_segment t (Lock.side_index side) ~pid;
  Api.note t.notes.m_released

let dual t =
  {
    Lock.dual_name = t.name;
    dual_acquire = (fun side ~pid -> acquire t side ~pid);
    dual_release = (fun side ~pid -> release t side ~pid);
  }

let as_two_process_lock t ~n:_ =
  let side_of pid =
    match pid with
    | 0 -> Lock.Left
    | 1 -> Lock.Right
    | _ -> invalid_arg "Arbitrator.as_two_process_lock: pid must be 0 or 1"
  in
  {
    Lock.name = t.name;
    acquire = (fun ~pid -> acquire t (side_of pid) ~pid);
    release = (fun ~pid -> release t (side_of pid) ~pid);
    try_abort = None;
  }
