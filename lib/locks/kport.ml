open Rme_sim

let free = 0

let initializing = 1

let trying = 2

let in_cs = 3

let leaving = 4

type t = {
  id : int;
  notes : Lock.milestones;
  name : string;
  k : int;
  reg : Nodes.registry;
  tail : Cell.t;
  state : Cell.t array;  (* per port *)
  mine : Cell.t array;
  pred : Cell.t array;
}

let create ?(name = "kport") ~k ctx =
  let mem = Engine.Ctx.memory ctx in
  let id = Engine.Ctx.register_lock ctx name in
  let per_port field init = Memory.alloc_array mem ~len:k ~name:(name ^ "." ^ field) init in
  {
    id;
    notes = Lock.milestones id;
    name;
    k;
    reg = Nodes.create_registry ctx ~prefix:name;
    tail = Memory.alloc mem ~name:(name ^ ".tail") Nodes.null;
    state = per_port "state" free;
    mine = per_port "mine" Nodes.null;
    pred = per_port "pred" Nodes.null;
  }

let lock_id t = t.id

let exit_segment t q =
  Api.write t.state.(q) leaving;
  let mine = Api.read t.mine.(q) in
  let node = Nodes.get t.reg mine in
  let (_ : bool) = Api.cas t.tail ~expect:mine ~value:Nodes.null in
  let (_ : bool) = Api.cas node.Nodes.next ~expect:Nodes.null ~value:mine in
  let next = Api.read node.Nodes.next in
  if next <> mine then Api.write (Nodes.get t.reg next).Nodes.locked 0;
  Api.write t.state.(q) free

let enter_segment t q ~pid =
  let s = Api.read t.state.(q) in
  if s = in_cs then () (* BCSR *)
  else begin
    if s = leaving then exit_segment t q;
    if Api.read t.state.(q) = free then begin
      Api.write t.mine.(q) Nodes.null;
      Api.write t.state.(q) initializing
    end;
    if Api.read t.state.(q) = initializing then begin
      if Api.read t.mine.(q) = Nodes.null then begin
        let node = Nodes.fresh t.reg ~owner:pid in
        Api.write t.mine.(q) node.Nodes.id
      end;
      let mine = Api.read t.mine.(q) in
      let node = Nodes.get t.reg mine in
      Api.write node.Nodes.next Nodes.null;
      Api.write node.Nodes.locked 1;
      Api.write t.pred.(q) mine;
      Api.write t.state.(q) trying
    end;
    if Api.read t.state.(q) = trying then begin
      let mine = Api.read t.mine.(q) in
      let node = Nodes.get t.reg mine in
      (* pred = mine marks "not appended yet"; the append is atomic, so a
         crash leaves either both effects or neither — no sensitive gap. *)
      if Api.read t.pred.(q) = mine then Api.fas_persist t.tail mine ~dst:t.pred.(q);
      let pred = Api.read t.pred.(q) in
      if pred <> Nodes.null then begin
        let pnode = Nodes.get t.reg pred in
        let (_ : bool) = Api.cas pnode.Nodes.next ~expect:Nodes.null ~value:mine in
        if Api.read pnode.Nodes.next = mine then Api.spin_until node.Nodes.locked (Api.Eq 0)
      end;
      Api.write t.state.(q) in_cs
    end
  end

let check_port t q =
  if q < 0 || q >= t.k then invalid_arg (Printf.sprintf "%s: port %d out of range" t.name q)

let acquire t ~port ~pid =
  check_port t port;
  Api.note t.notes.m_enter;
  enter_segment t port ~pid;
  Api.note t.notes.m_acquired

let release t ~port ~pid:_ =
  check_port t port;
  Api.note t.notes.m_release;
  exit_segment t port;
  Api.note t.notes.m_released

let as_lock t =
  {
    Lock.name = t.name;
    acquire = (fun ~pid -> acquire t ~port:pid ~pid);
    release = (fun ~pid -> release t ~port:pid ~pid);
    try_abort = None;
  }
