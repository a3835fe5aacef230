open Rme_sim

type t = {
  id : int;
  name : string;
  m : int;
  sa : Sa_lock.t array;  (* sa.(l) is level l+1 in the paper's numbering *)
  base : Lock.t;
  track : bool;
  hint : Cell.t array;  (* per process: 1-based deepest level (§7.3); 1 = start *)
}

let create ?(name = "ba") ?levels ?(track_level = false) ~base ctx =
  let mem = Engine.Ctx.memory ctx in
  let n = Engine.Ctx.n ctx in
  let id = Engine.Ctx.register_lock ctx name in
  let m = match levels with Some m -> max 0 m | None -> Tournament.levels_for n in
  let sa =
    Array.init m (fun l ->
        Sa_lock.create ~name:(name ^ ".l" ^ string_of_int (l + 1)) ~level:(l + 1) ctx)
  in
  let base = base ctx in
  let hint = Memory.alloc_per_process mem ~name:(name ^ ".hint") 1 in
  { id; name; m; sa; base; track = track_level; hint }

let lock_id t = t.id

let levels t = t.m

let filter_ids t =
  Array.to_list (Array.map (fun sa -> Wr_lock.lock_id (Sa_lock.filter sa)) t.sa)

(* Acquire levels l, l+1, ... (0-based), recursing into the next level when
   diverted to the slow path, then acquire the level's arbitrator on the way
   back up — the execution flow of Figure 3. *)
let rec acquire_from t l ~pid =
  if l >= t.m then t.base.Lock.acquire ~pid
  else begin
    (match Sa_lock.enter_front t.sa.(l) ~pid with
    | `Fast -> ()
    | `Slow ->
        (* Persist the deepest level before descending so a restart can skip
           straight back down (§7.3). *)
        if t.track then Api.write t.hint.(pid) (l + 2);
        acquire_from t (l + 1) ~pid);
    Sa_lock.enter_back t.sa.(l) ~pid
  end

let rec release_from t l ~pid =
  if l >= t.m then t.base.Lock.release ~pid
  else
    Sa_lock.release_with t.sa.(l) ~pid ~core_release:(fun () -> release_from t (l + 1) ~pid)

let acquire t ~pid =
  let start = if t.track then min (t.m + 1) (max 1 (Api.read t.hint.(pid))) else 1 in
  acquire_from t (start - 1) ~pid;
  (* Arbitrators of the levels whose fronts were skipped. *)
  for l = start - 2 downto 0 do
    Sa_lock.enter_back t.sa.(l) ~pid
  done

let release t ~pid =
  (* Reset the hint before any lock is released: a crash mid-exit must
     restart with the full chain still held (BCSR), not with a stale deep
     hint over released levels. *)
  if t.track then Api.write t.hint.(pid) 1;
  release_from t 0 ~pid

let lock t =
  Lock.instrument ~id:t.id ~name:t.name ~acquire:(acquire t) ~release:(release t) ()

let make ~base ctx = lock (create ~base ctx)

let default ctx = lock (create ~name:"ba" ~base:Jjj_tree.make ctx)
