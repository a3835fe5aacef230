open Rme_sim

(* Process states (persisted in [state.(i)]). *)
let free = 0

let initializing = 1

let trying = 2

let in_cs = 3

let leaving = 4

type t = {
  id : int;
  name : string;
  mem : Memory.t;
  n : int;
  reg : Nodes.registry;
  tail : Cell.t;
  state : Cell.t array;
  mine : Cell.t array;
  pred : Cell.t array;
  alloc : pid:int -> Nodes.node;
  retire : pid:int -> unit;
}

let default_alloc reg ~pid = Nodes.fresh reg ~owner:pid

let create ?(name = "wr") ?(alloc = default_alloc) ?(retire = fun ~pid:_ -> ()) ctx =
  let mem = Engine.Ctx.memory ctx in
  let n = Engine.Ctx.n ctx in
  let id = Engine.Ctx.register_lock ctx name in
  let cell_array field init = Memory.alloc_per_process mem ~name:(name ^ "." ^ field) init in
  (* Cells in id order, then the nodes an allocator draws at construction
     (a reclamation pool). *)
  let pred = cell_array "pred" Nodes.null in
  let mine = cell_array "mine" Nodes.null in
  let state = cell_array "state" free in
  let tail = Memory.alloc mem ~name:(name ^ ".tail") Nodes.null in
  let reg = Nodes.create_registry ctx ~prefix:name in
  { id; name; mem; n; reg; tail; state; mine; pred; alloc = alloc reg; retire }

let lock_id t = t.id

let registry t = t.reg

(* Exit segment (Algorithm 2).  Also used by Recover to relinquish a node
   after a detected FAS-gap failure and to finish an interrupted Exit; every
   step is idempotent. *)
let exit_segment t ~pid =
  Api.write t.state.(pid) leaving;
  let mine = Api.read t.mine.(pid) in
  (* [mine] cannot be null here: Leaving is only reachable with a node. *)
  let node = Nodes.get t.reg mine in
  (* Remove my node from the queue if it has no successor. *)
  let (_ : bool) = Api.cas t.tail ~expect:mine ~value:Nodes.null in
  (* May have a successor; make sure it cannot block: mark [next] with my own
     id if the link is not created yet. *)
  let (_ : bool) = Api.cas node.Nodes.next ~expect:Nodes.null ~value:mine in
  let next = Api.read node.Nodes.next in
  if next <> mine then Api.write (Nodes.get t.reg next).Nodes.locked 0;
  (* With pooled allocation (§7.2) the node is handed back here — both on a
     normal exit and when recovery relinquishes it.  Retiring strictly
     before the state returns to Free matters: a crash in between re-runs
     this exit and the retire guard (in ≠ out) absorbs the duplicate,
     whereas the reverse order could hand the same pool slot to the next
     request. *)
  t.retire ~pid;
  Api.write t.state.(pid) free

let recover_segment t ~pid =
  let s = Api.read t.state.(pid) in
  if s = trying then begin
    if Api.read t.pred.(pid) = Api.read t.mine.(pid) then
      (* May have crashed around the FAS: the result was never persisted, so
         the predecessor is unknown.  Relinquish the node and retry. *)
      exit_segment t ~pid
  end
  else if s = leaving then exit_segment t ~pid;
  if Api.read t.state.(pid) = free then begin
    Api.write t.mine.(pid) Nodes.null;
    Api.write t.state.(pid) initializing
  end

let enter_segment ?(abortable = false) t ~pid =
  if Api.read t.state.(pid) = initializing then begin
    if Api.read t.mine.(pid) = Nodes.null then begin
      let node = t.alloc ~pid in
      Api.write t.mine.(pid) node.Nodes.id
    end;
    let mine = Api.read t.mine.(pid) in
    let node = Nodes.get t.reg mine in
    Api.write node.Nodes.next Nodes.null;
    Api.write node.Nodes.locked 1;
    (* Setting pred = mine marks "FAS not performed yet". *)
    Api.write t.pred.(pid) mine;
    Api.write t.state.(pid) trying
  end;
  if Api.read t.state.(pid) = trying then begin
    let mine = Api.read t.mine.(pid) in
    let node = Nodes.get t.reg mine in
    if Api.read t.pred.(pid) = mine then begin
      (* Append my node to the queue; the window between the FAS and the
         persisting write is the lock's only sensitive region. *)
      let temp = Api.fas_open_unsafe ~lock:t.id t.tail mine in
      Api.write_close_unsafe ~lock:t.id t.pred.(pid) temp
    end;
    let pred = Api.read t.pred.(pid) in
    if pred <> Nodes.null then begin
      let pnode = Nodes.get t.reg pred in
      let (_ : bool) = Api.cas pnode.Nodes.next ~expect:Nodes.null ~value:mine in
      (* Use the field contents, not the CAS outcome (idempotence). *)
      if Api.read pnode.Nodes.next = mine then
        if abortable then begin
          Api.spin_abortable node.Nodes.locked (Api.Eq 0);
          if Api.poll_abort () then raise Api.Abort_signal
        end
        else Api.spin_until node.Nodes.locked (Api.Eq 0)
    end;
    Api.write t.state.(pid) in_cs
  end

(* Abort protocol.  The MCS queue has no mid-queue unlink: once the node
   is appended, the predecessor will eventually hand this process the lock
   by clearing [locked].  A withdrawal therefore waits for that incoming
   hand-off and relays it straight to the successor through the wait-free
   exit — never entering the CS — so the chain stays intact.  If the grant
   already landed when the protocol starts, the abort lost the race and
   the process keeps the lock. *)
let try_abort t ~pid =
  (* Reachable only from the waiting spin: state = Trying, node enqueued,
     predecessor known. *)
  let mine = Api.read t.mine.(pid) in
  let node = Nodes.get t.reg mine in
  if Api.read node.Nodes.locked = 0 then begin
    Api.write t.state.(pid) in_cs;
    Harness.Acquired_instead
  end
  else begin
    Api.spin_until node.Nodes.locked (Api.Eq 0);
    exit_segment t ~pid;
    Harness.Aborted
  end

let lock t =
  Lock.instrument ~id:t.id ~name:t.name
    ~acquire:(fun ~pid ->
      recover_segment t ~pid;
      enter_segment t ~pid)
    ~release:(fun ~pid -> exit_segment t ~pid)
    ()

let lock_abortable t =
  Lock.instrument ~id:t.id ~name:t.name
    ~try_abort:(fun ~pid -> try_abort t ~pid)
    ~acquire:(fun ~pid ->
      recover_segment t ~pid;
      enter_segment ~abortable:true t ~pid)
    ~release:(fun ~pid -> exit_segment t ~pid)
    ()

let make ctx = lock (create ctx)

let make_abort ctx = lock_abortable (create ~name:"wr-abort" ctx)

let owner_of_node t id = (Nodes.get t.reg id).Nodes.owner

(* Reconstruct the implicit sub-queues from shared memory, in the spirit of
   Proposition 4.1: a live process's node, together with the predecessor
   recorded in pred[i], defines a chain edge pred -> mine; nodes whose
   predecessor is unknown (crash in the FAS gap) or null head a chain, as do
   orphaned predecessor nodes owned by no live process. *)
let subqueues t =
  let live = ref [] in
  for i = 0 to t.n - 1 do
    let s = Memory.peek t.mem t.state.(i) in
    if s = trying || s = in_cs || s = leaving then begin
      let mine = Memory.peek t.mem t.mine.(i) in
      if mine <> Nodes.null then begin
        let pred = Memory.peek t.mem t.pred.(i) in
        let pred = if pred = mine then None else Some pred in
        live := (mine, pred) :: !live
      end
    end
  done;
  let live = !live in
  let nodes = Hashtbl.create 16 in
  List.iter
    (fun (m, p) ->
      Hashtbl.replace nodes m ();
      match p with Some p when p <> Nodes.null -> Hashtbl.replace nodes p () | _ -> ())
    live;
  let succ = Hashtbl.create 16 in
  let has_pred = Hashtbl.create 16 in
  List.iter
    (fun (m, p) ->
      match p with
      | Some p when p <> Nodes.null ->
          Hashtbl.replace succ p m;
          Hashtbl.replace has_pred m ()
      | _ -> ())
    live;
  let heads =
    Hashtbl.fold (fun n () acc -> if Hashtbl.mem has_pred n then acc else n :: acc) nodes []
    |> List.sort compare
  in
  let chain head =
    let rec follow n acc =
      match Hashtbl.find_opt succ n with Some m -> follow m (m :: acc) | None -> List.rev acc
    in
    follow head [ head ]
  in
  List.map chain heads
