open Rme_sim

(* switch states *)
let completed = 0

let started = 1

let in_progress = 2

(* modes *)
let scan = 0

let wait = 1

(* Waiting strategy for the epoch's Wait phase.  [Spin] busy-waits on the
   scanned process's [out] counter — O(1) under CC (cached) but a remote
   spin under DSM.  [Notify] is the "notification based system" the paper
   sketches for DSM (§7.2, last paragraph): the waiter registers a target in
   a slot homed at the scanned process, marks it dirty, and sleeps on its
   own local doorbell; the retiring process rings registered doorbells when
   its [out] counter passes their targets.  The dirty flag keeps retire O(1)
   when nobody waits; the register / re-dirty / re-check ordering makes
   wake-ups lossless (same arm-recheck-sleep idiom as the arbitrator). *)
type notify = {
  ding : Cell.t array;  (* doorbell, home = waiter *)
  slot : Cell.t array array;  (* slot.(j).(i): i waits for out[j] >= slot; home j *)
  dirty : Cell.t array;  (* dirty.(j): someone may be registered at j; home j *)
}

type t = {
  name : string;
  n : int;
  incoming : Cell.t array;  (* paper: in[i], nodes allocated *)
  outgoing : Cell.t array;  (* paper: out[i], nodes retired *)
  switch : Cell.t array;
  mode : Cell.t array;
  index : Cell.t array;
  snapshot : Cell.t array array;  (* snapshot.(i).(j) *)
  pool_index : Cell.t array;
  confirm_pool_index : Cell.t array;
  notify : notify option;
  mutable pools : Nodes.node array array array;  (* pools.(i).(b).(s), drawn by [alloc] *)
}

let create ?(name = "reclaim") ?(notify = false) ctx =
  let mem = Engine.Ctx.memory ctx in
  let n = Engine.Ctx.n ctx in
  let arr field init = Memory.alloc_per_process mem ~name:(name ^ "." ^ field) init in
  let matrix field init =
    let name = name ^ "." ^ field in
    Array.init n (fun i ->
        Memory.alloc_array mem ~home:i ~len:n ~name:(name ^ "[" ^ string_of_int i ^ "]") init)
  in
  {
    name;
    n;
    incoming = arr "in" 0;
    outgoing = arr "out" 0;
    switch = arr "switch" completed;
    mode = arr "mode" scan;
    index = arr "index" 0;
    snapshot = matrix "snapshot" 0;
    pool_index = arr "pool_index" 0;
    confirm_pool_index = arr "confirm_pool_index" 0;
    notify =
      (if notify then Some { ding = arr "ding" 0; slot = matrix "slot" 0; dirty = arr "dirty" 0 }
       else None);
    pools = [||];
  }

(* One incremental step of the epoch state machine (Algorithm 4). *)
let epoch t ~pid =
  if Api.read t.switch.(pid) = completed then begin
    if Api.read t.mode.(pid) = scan then begin
      let idx = Api.read t.index.(pid) in
      let v = Api.read t.incoming.(idx) in
      Api.write t.snapshot.(pid).(idx) v;
      if idx < t.n - 1 then Api.write t.index.(pid) (idx + 1) else Api.write t.mode.(pid) wait
    end;
    if Api.read t.mode.(pid) = wait then begin
      let idx = Api.read t.index.(pid) in
      let snap = Api.read t.snapshot.(pid).(idx) in
      (* Wait for process idx to satisfy every request the scan saw. *)
      (match t.notify with
      | None -> Api.spin_until t.outgoing.(idx) (Api.Ge snap)
      | Some nt ->
          if Api.read t.outgoing.(idx) < snap then begin
            (* Register a doorbell target at idx; re-dirty after arming so a
               concurrent retire either sees the slot or the flag. *)
            Api.write nt.ding.(pid) 0;
            Api.write nt.slot.(idx).(pid) snap;
            Api.write nt.dirty.(idx) 1;
            (* Re-check after arming: a retire concurrent with the
               registration either saw the slot (dirty was already set) or
               finished before this read, which then passes. *)
            if Api.read t.outgoing.(idx) < snap then Api.spin_until nt.ding.(pid) (Api.Eq 1)
          end;
          Api.write nt.slot.(idx).(pid) 0);
      if idx > 0 then Api.write t.index.(pid) (idx - 1) else Api.write t.switch.(pid) started
    end
  end;
  if Api.read t.switch.(pid) = started then begin
    if Api.read t.pool_index.(pid) = Api.read t.confirm_pool_index.(pid) then
      Api.write t.pool_index.(pid) (1 - Api.read t.pool_index.(pid));
    Api.write t.switch.(pid) in_progress
  end;
  if Api.read t.switch.(pid) = in_progress then begin
    if Api.read t.pool_index.(pid) <> Api.read t.confirm_pool_index.(pid) then
      Api.write t.confirm_pool_index.(pid) (Api.read t.pool_index.(pid));
    Api.write t.mode.(pid) scan;
    Api.write t.switch.(pid) completed
  end

let new_node t ~pid =
  if Api.read t.incoming.(pid) = Api.read t.outgoing.(pid) then begin
    epoch t ~pid;
    Api.write t.incoming.(pid) (Api.read t.incoming.(pid) + 1)
  end;
  let idx = Api.read t.outgoing.(pid) mod (2 * t.n) in
  t.pools.(pid).(Api.read t.pool_index.(pid)).(idx)

let retire t ~pid =
  if Api.read t.incoming.(pid) <> Api.read t.outgoing.(pid) then begin
    let out = Api.read t.outgoing.(pid) + 1 in
    Api.write t.outgoing.(pid) out;
    match t.notify with
    | None -> ()
    | Some nt ->
        (* Ring the doorbells of waiters whose target my counter passed.
           The dirty flag is monotone (never cleared): a clear-then-scan
           protocol would have a crash window between the clear and the
           rings that loses a wake-up forever, whereas a sticky flag only
           costs an O(n) doorbell scan on the retires of processes somebody
           once waited on. *)
        if Api.read nt.dirty.(pid) = 1 then
          for i = 0 to t.n - 1 do
            let target = Api.read nt.slot.(pid).(i) in
            if target <> 0 && out >= target then Api.write nt.ding.(i) 1
          done
  end

(* The pools model statically allocated NVRAM: drawn during construction,
   from the owning lock's registry so that node ids resolve in that lock,
   they belong to the image every run rewinds to. *)
let alloc t reg =
  t.pools <-
    Array.init t.n (fun i ->
        Array.init 2 (fun _ -> Array.init (2 * t.n) (fun _ -> Nodes.fresh reg ~owner:i)));
  fun ~pid -> new_node t ~pid
