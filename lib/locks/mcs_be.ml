open Rme_sim

type t = { reg : Nodes.registry; tail : Cell.t; own : int array }

let make ctx =
  let mem = Engine.Ctx.memory ctx in
  let n = Engine.Ctx.n ctx in
  let id = Engine.Ctx.register_lock ctx "mcs-be" in
  let t =
    {
      reg = Nodes.create_registry ctx ~prefix:"mcs-be";
      tail = Memory.alloc mem ~name:"mcs-be.tail" Nodes.null;
      own = Array.make n Nodes.null;
    }
  in
  (* [own] needs no rewind: every acquire sets it before its release reads
     it, and a crash restarts the body at an acquire. *)
  let acquire ~pid =
    let node = Nodes.fresh t.reg ~owner:pid in
    t.own.(pid) <- node.Nodes.id;
    Api.write node.Nodes.next Nodes.null;
    Api.write node.Nodes.locked 1;
    let prev = Api.fas t.tail node.Nodes.id in
    if prev <> Nodes.null then begin
      let pred = Nodes.get t.reg prev in
      let (_ : bool) = Api.cas pred.Nodes.next ~expect:Nodes.null ~value:node.Nodes.id in
      (* Decide from the field contents, not the CAS outcome: if the link is
         ours we wait; otherwise the predecessor already left and marked the
         field with its own id — the lock is free. *)
      if Api.read pred.Nodes.next = node.Nodes.id then
        Api.spin_until node.Nodes.locked (Api.Eq 0)
    end
  in
  let release ~pid =
    let node = Nodes.get t.reg t.own.(pid) in
    let (_ : bool) = Api.cas t.tail ~expect:node.Nodes.id ~value:Nodes.null in
    let (_ : bool) = Api.cas node.Nodes.next ~expect:Nodes.null ~value:node.Nodes.id in
    let next = Api.read node.Nodes.next in
    if next <> node.Nodes.id then Api.write (Nodes.get t.reg next).Nodes.locked 0
  in
  Lock.instrument ~id ~name:"mcs-be" ~acquire ~release ()
