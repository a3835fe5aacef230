open Rme_sim

(* Private per-process memory: the reference to the process's own node lives
   in a register across acquire/release of the same passage.  The original
   algorithm reuses the node, so a plain host-side array models it. *)
type t = { reg : Nodes.registry; tail : Cell.t; own : int array }

let make ctx =
  let mem = Engine.Ctx.memory ctx in
  let n = Engine.Ctx.n ctx in
  let id = Engine.Ctx.register_lock ctx "mcs" in
  let t =
    {
      reg = Nodes.create_registry ctx ~prefix:"mcs";
      tail = Memory.alloc mem ~name:"mcs.tail" Nodes.null;
      own = Array.make n Nodes.null;
    }
  in
  Engine.Ctx.on_rewind ctx (fun () -> Array.fill t.own 0 n Nodes.null);
  let node_of pid =
    if t.own.(pid) = Nodes.null then t.own.(pid) <- (Nodes.fresh t.reg ~owner:pid).Nodes.id;
    Nodes.get t.reg t.own.(pid)
  in
  let acquire ~pid =
    let node = node_of pid in
    Api.write node.Nodes.next Nodes.null;
    Api.write node.Nodes.locked 1;
    let prev = Api.fas t.tail node.Nodes.id in
    if prev <> Nodes.null then begin
      let pred = Nodes.get t.reg prev in
      Api.write pred.Nodes.next node.Nodes.id;
      Api.spin_until node.Nodes.locked (Api.Eq 0)
    end
  in
  let release ~pid =
    let node = Nodes.get t.reg t.own.(pid) in
    if not (Api.cas t.tail ~expect:node.Nodes.id ~value:Nodes.null) then begin
      (* A successor exists; wait for it to link itself in, then hand over. *)
      Api.spin_until node.Nodes.next (Api.Ne Nodes.null);
      let succ = Nodes.get t.reg (Api.read node.Nodes.next) in
      Api.write succ.Nodes.locked 0
    end
  in
  Lock.instrument ~id ~name:"mcs" ~acquire ~release ()
