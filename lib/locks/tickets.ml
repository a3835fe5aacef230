open Rme_sim

(* Announce-slot sentinels.  Real tickets start at [base] so they can never
   collide with either sentinel. *)
let idle = 0

let taking = 1

let base = 2

type t = {
  name : string;
  n : int;
  seq : Cell.t;  (* next ticket to issue *)
  grant : Cell.t;  (* ticket currently served *)
  dirty : Cell.t;  (* pending doorway-crash repairs (may overcount) *)
  ann : Cell.t array;  (* per process: idle, taking, or its ticket *)
}

let create ?(name = "tickets") ctx =
  let mem = Engine.Ctx.memory ctx in
  let n = Engine.Ctx.n ctx in
  {
    name;
    n;
    seq = Memory.alloc mem ~name:(name ^ ".seq") base;
    grant = Memory.alloc mem ~name:(name ^ ".grant") base;
    dirty = Memory.alloc mem ~name:(name ^ ".dirty") 0;
    ann = Memory.alloc_per_process mem ~name:(name ^ ".ann") idle;
  }

(* Skip the ticket currently served iff its owner provably died in the
   doorway.  Safety of the CAS guard: tickets are unique, so ticket [g] has
   exactly one owner; from the moment that owner announced [g] until its
   own release moves [grant] past [g], its slot holds [g] (crashes do not
   clear it — recovery resumes ownership while [g] is current).  A slot
   stuck at [taking] may be hiding an unannounced [g], so the scan parks on
   it and retries — the slot changes when the owner either announces (live)
   or restarts through recovery (which clears it).  If no slot holds [g]
   and none is mid-doorway, the issued ticket [g] is dead and CAS(g, g+1)
   hands the lock on; a concurrent release or rival repairer changes
   [grant] first, the CAS fails, and nothing is skipped twice.

   Skip only dead tickets, however many in a row.  After a skip, repair
   starts over: it reads [grant] and [seq] again and scans again, so every
   skip is guarded by its own scan and the argument above holds for each
   one.  The walk cannot run ahead of the count: a ticket is skipped only
   when its owner's slot left [taking] without announcing it, which only
   recovery does, and recovery bumps [dirty] before it clears the slot.  So
   every skip matches an earlier [dirty] increment, and the decrement after
   it never takes [dirty] below zero.  The walk ends at a live ticket, at
   [seq] (nothing issued to skip), or at a failed CAS (someone else moved
   [grant], and their repair or release takes over). *)
let rec repair t =
  let g = Api.read t.grant in
  let s = Api.read t.seq in
  if g < s then begin
    (* [g] was issued; read grant and seq before the scan so a slot seen
       empty cannot later announce [g] (its FAS would return >= s > g). *)
    let verdict = ref `Dead in
    let q = ref 0 in
    while !verdict = `Dead && !q < t.n do
      let a = Api.read t.ann.(!q) in
      if a = g then verdict := `Live
      else if a = taking then verdict := `Taking !q;
      incr q
    done;
    match !verdict with
    | `Live -> () (* the served ticket has a live owner; nothing to fix *)
    | `Taking q ->
        Api.spin_until t.ann.(q) (Api.Ne taking);
        repair t
    | `Dead ->
        if Api.cas t.grant ~expect:g ~value:(g + 1) then begin
          let (_ : int) = Api.faa t.dirty (-1) in
          (* The next ticket may be dead too (its owner crashed in the
             doorway after this one's did), and nobody else will look: a
             waiter reads [dirty] once before it spins.  So walk on until
             the served ticket is live, unissued, or behind a doorway. *)
          repair t
        end
  end

(* Recovery-aware doorway + wait.  The only sensitive gap is between
   [ann := taking] and [ann := ticket] around the FAS on [seq]: a crash
   there may lose a ticket that nobody will ever announce.  Recovery cannot
   tell whether the FAS happened, so it marks [dirty] and the lost (or
   phantom) ticket is skipped by {!repair} when it becomes current. *)
let rec enter t ~pid =
  let a = Api.read t.ann.(pid) in
  if a = taking then begin
    (* Crashed in the doorway: the ticket, if taken, is lost. *)
    let (_ : int) = Api.faa t.dirty 1 in
    Api.write t.ann.(pid) idle;
    enter t ~pid
  end
  else if a = idle then begin
    Api.write t.ann.(pid) taking;
    let ticket = Api.faa t.seq 1 in
    Api.write t.ann.(pid) ticket;
    wait t ~ticket
  end
  else begin
    (* Recovering with a ticket in hand. *)
    let g = Api.read t.grant in
    if a < g then begin
      (* Our previous passage was already served to completion of its
         hand-off (we crashed between grant++ and the slot clear). *)
      Api.write t.ann.(pid) idle;
      enter t ~pid
    end
    else wait t ~ticket:a (* a = g resumes ownership; a > g rejoins *)
  end

and wait t ~ticket =
  if Api.read t.dirty > 0 then repair t;
  Api.spin_until t.grant (Api.Eq ticket)

let exit t ~pid =
  (* grant++ strictly before the slot clear: losing the hand-off would
     wedge the queue, while crashing after it just leaves a stale slot
     that recovery classifies by [ann < grant]. *)
  let (_ : int) = Api.faa t.grant 1 in
  if Api.read t.dirty > 0 then repair t;
  Api.write t.ann.(pid) idle
