open Rme_sim

(* Abortable hand-off spinlock.

   The plain recoverable TAS lock ({!Tas_lock}) spins directly on [owner],
   so withdrawing a request is trivial — stop spinning — and exercises
   nothing.  This variant transfers the lock by explicit hand-off, which is
   where aborting gets interesting: a releaser *claims* a registered waiter
   (CAS flag 1 -> 2), transfers ownership, then posts a grant the waiter
   consumes.  An abort therefore races the claim — either the registration
   is cancelled in time (CAS flag 1 -> 0) or the claim won and the hand-off
   is unstoppable: the aborting process must accept the lock after all
   ([Acquired_instead]).

   Cells:
   - [flag.(i)]  0 = absent, 1 = registered waiter, 2 = claimed by a releaser
   - [grant.(i)] 1 = hand-off posted; written strictly after [owner], so a
                 visible grant implies [owner = i+1]
   - [owner]     pid+1 of the holder, 0 = free

   Release scans flags round-robin from the releaser's successor, so a
   registered waiter is claimed within n hand-offs (the token walks the
   ring towards it) — starvation-free, which is what lets
   {!Rme_check.Props.no_lost_wakeup} use a passage bound.

   The [naive] variant plants the classic lost-wakeup bug: its abort
   handles the lost race by *consuming* the grant and leaving anyway,
   instead of accepting the lock.  The hand-off is destroyed — [owner]
   names a process that went back to the NCS — and the system deadlocks as
   the remaining waiters (including the aborter, on its retry) park on
   grants nobody will ever post.  This is the witness
   {!Rme_check.Props.no_lost_wakeup} exists to catch.

   Neither variant is crash-safe (a crash between claim and grant strands
   the claimed waiter); the registry marks them accordingly — this family
   is the abort-semantics exemplar, {!Wr_lock.make_abort} is the
   crash-and-abort one. *)

type t = {
  id : int;
  name : string;
  n : int;
  naive : bool;
  owner : Cell.t;
  flag : Cell.t array;
  grant : Cell.t array;
}

let create ?(name = "tas-abort") ?(naive = false) ctx =
  let mem = Engine.Ctx.memory ctx in
  let n = Engine.Ctx.n ctx in
  let id = Engine.Ctx.register_lock ctx name in
  let arr field init = Memory.alloc_per_process mem ~name:(name ^ "." ^ field) init in
  {
    id;
    name;
    n;
    naive;
    owner = Memory.alloc mem ~name:(name ^ ".owner") 0;
    flag = arr "flag" 0;
    grant = arr "grant" 0;
  }

let lock_id t = t.id

let acquire t ~pid =
  Api.write t.flag.(pid) 1;
  let acquired = ref false in
  while not !acquired do
    if Api.cas t.owner ~expect:0 ~value:(pid + 1) then begin
      (* [owner] was 0, so the previous release had already finished its
         scan without claiming us: the registration is still ours to
         retract. *)
      Api.write t.flag.(pid) 0;
      acquired := true
    end
    else begin
      Api.spin_abortable t.grant.(pid) (Api.Eq 1);
      if Api.read t.grant.(pid) = 1 then begin
        (* Hand-off: [owner = pid+1] was written before the grant. *)
        Api.write t.grant.(pid) 0;
        Api.write t.flag.(pid) 0;
        acquired := true
      end
      else if Api.poll_abort () then raise Api.Abort_signal
      (* else: raced a concurrent consume; re-attempt. *)
    end
  done

let release t ~pid =
  let rec hand_off () =
    let handed = ref false in
    let k = ref 1 in
    while (not !handed) && !k <= t.n - 1 do
      let j = (pid + !k) mod t.n in
      if Api.cas t.flag.(j) ~expect:1 ~value:2 then begin
        Api.write t.owner (j + 1);
        Api.write t.grant.(j) 1;
        handed := true
      end;
      incr k
    done;
    if not !handed then begin
      Api.write t.owner 0;
      (* Close the register-after-scan race: a waiter that set its flag
         after the scan read its slot but before [owner := 0] would park
         on a grant nobody posts.  Any such registration is visible to
         this re-scan (its write precedes [owner := 0]); if the lock is
         still free we re-take it and hand off for real — if the CAS
         fails, whoever took it owns the next scan. *)
      let waiter = ref false in
      for j = 0 to t.n - 1 do
        if Api.read t.flag.(j) = 1 then waiter := true
      done;
      if !waiter && Api.cas t.owner ~expect:0 ~value:(pid + 1) then hand_off ()
    end
  in
  hand_off ()

let try_abort t ~pid =
  if t.naive then begin
    (* Planted bug: retract blindly and treat a posted grant as litter to
       sweep up.  Consuming it destroys the hand-off — [owner] still names
       this process, but nobody knows. *)
    Api.write t.flag.(pid) 0;
    if Api.read t.grant.(pid) = 1 then Api.write t.grant.(pid) 0;
    Harness.Aborted
  end
  else if Api.cas t.flag.(pid) ~expect:1 ~value:0 then
    (* Retracted before any claim: no grant exists or ever will. *)
    Harness.Aborted
  else begin
    (* A releaser claimed us (flag = 2): the hand-off is unstoppable.
       Accept it. *)
    Api.spin_until t.grant.(pid) (Api.Eq 1);
    Api.write t.grant.(pid) 0;
    Api.write t.flag.(pid) 0;
    Harness.Acquired_instead
  end

let lock t =
  Lock.instrument ~id:t.id ~name:t.name
    ~try_abort:(fun ~pid -> try_abort t ~pid)
    ~acquire:(fun ~pid -> acquire t ~pid)
    ~release:(fun ~pid -> release t ~pid)
    ()

let make ctx = lock (create ctx)

let make_naive ctx = lock (create ~name:"tas-abort-naive" ~naive:true ctx)
