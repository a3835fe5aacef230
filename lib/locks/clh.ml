open Rme_sim

(* A CLH node is a single cell: 1 = locked (owner active), 0 = released. *)
type t = {
  mem : Memory.t;
  tail : Cell.t;
  mine : int array; (* private: my node's cell id + 1 *)
  pred : int array; (* private: predecessor node's cell id + 1 *)
  cells : Cell.t Vec.t;
}

let make ctx =
  let mem = Engine.Ctx.memory ctx in
  let n = Engine.Ctx.n ctx in
  let id = Engine.Ctx.register_lock ctx "clh" in
  let cells = Vec.create () in
  let fresh_cell init =
    let c = Memory.alloc mem ~name:("clh.n" ^ string_of_int (Vec.length cells)) init in
    Vec.push cells c;
    c
  in
  (* The initial dummy node is released. *)
  let dummy = fresh_cell 0 in
  let t =
    {
      mem;
      tail = Memory.alloc mem ~name:"clh.tail" (dummy.Cell.id + 1);
      mine = Array.make n 0;
      pred = Array.make n 0;
      cells;
    }
  in
  (* A rewound store keeps only the dummy: every other node is a run's.
     [pred] needs no rewind: every acquire sets it before its release reads
     it, and a crash restarts the body at an acquire. *)
  Engine.Ctx.on_rewind ctx (fun () ->
      Vec.truncate cells 1;
      Array.fill t.mine 0 n 0);
  (* Cell ids are global across the store, so map via the recorded vector:
     nodes are few (n + 1 live), a linear scan is fine. *)
  let find idp1 =
    let target = idp1 - 1 in
    let rec loop i =
      if i >= Vec.length t.cells then invalid_arg "clh: unknown node"
      else
        let c = Vec.get t.cells i in
        if c.Cell.id = target then c else loop (i + 1)
    in
    loop 0
  in
  let acquire ~pid =
    let node = if t.mine.(pid) = 0 then fresh_cell 1 else find t.mine.(pid) in
    t.mine.(pid) <- node.Cell.id + 1;
    Api.write node 1;
    let prev = Api.fas t.tail (node.Cell.id + 1) in
    t.pred.(pid) <- prev;
    Api.spin_until (find prev) (Api.Eq 0)
  in
  let release ~pid =
    let node = find t.mine.(pid) in
    Api.write node 0;
    (* Recycle the predecessor's node for my next request (CLH hand-off). *)
    t.mine.(pid) <- t.pred.(pid)
  in
  Lock.instrument ~id ~name:"clh" ~acquire ~release ()
