open Rme_sim

(* Reader states, persisted per process. *)
let idle = 0

let pending = 1

let reading = 2

let leaving = 3

type t = {
  name : string;
  n : int;
  wlock : Lock.t;
  wflag : Cell.t;  (* a writer holds (or is draining towards) the resource *)
  rflag : Cell.t array;  (* reader announcements; home = the reader *)
  rstate : Cell.t array;  (* reader recovery state machine; home = the reader *)
}

let create ?(name = "rw") ?writer_lock ctx =
  let mem = Engine.Ctx.memory ctx in
  let n = Engine.Ctx.n ctx in
  let wlock =
    match writer_lock with
    | Some l -> l
    | None -> Ba_lock.lock (Ba_lock.create ~name:(name ^ ".w") ~base:Jjj_tree.make ctx)
  in
  let arr field init = Memory.alloc_per_process mem ~name:(name ^ "." ^ field) init in
  {
    name;
    n;
    wlock;
    wflag = Memory.alloc mem ~name:(name ^ ".wflag") 0;
    rflag = arr "rflag" 0;
    rstate = arr "rstate" idle;
  }

let rec read_enter t ~pid =
  let s = Api.read t.rstate.(pid) in
  if s = reading then () (* BCSR: crashed inside the read section *)
  else begin
    if s = leaving then begin
      (* Finish the interrupted exit first. *)
      Api.write t.rflag.(pid) 0;
      Api.write t.rstate.(pid) idle
    end;
    (* Announce, then check for a writer.  The writer's drain scans the
       announcements only after setting wflag, so either it sees ours (and
       waits for us) or we see its wflag (and withdraw). *)
    Api.write t.rstate.(pid) pending;
    Api.write t.rflag.(pid) 1;
    if Api.read t.wflag = 0 then Api.write t.rstate.(pid) reading
    else begin
      Api.write t.rflag.(pid) 0;
      Api.write t.rstate.(pid) idle;
      Api.spin_until t.wflag (Api.Eq 0);
      read_enter t ~pid
    end
  end

let read_acquire t ~pid = read_enter t ~pid

let read_release t ~pid =
  (* Leaving-first ordering: a crash between the two writes leaves state
     [leaving] + flag still set, which the next Recover finishes; the
     reverse order could let a restart claim a read section it no longer
     announces. *)
  Api.write t.rstate.(pid) leaving;
  Api.write t.rflag.(pid) 0;
  Api.write t.rstate.(pid) idle

let write_acquire t ~pid =
  t.wlock.Lock.acquire ~pid;
  (* Announce and drain.  Idempotent: a crashed writer re-enters the mutex
     via its BCSR, re-sets the flag and re-scans. *)
  Api.write t.wflag 1;
  for i = 0 to t.n - 1 do
    Api.spin_until t.rflag.(i) (Api.Eq 0)
  done

let write_release t ~pid =
  Api.write t.wflag 0;
  t.wlock.Lock.release ~pid
