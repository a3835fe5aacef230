open Rme_sim

let idle = 0

let chosen = 2

let in_cs = 3

(* state 1 (doorway) is never persisted: a crash inside the doorway replays
   it from scratch, which is safe because [number] is written exactly once
   at the end. *)

let make_named ?(abortable = false) ~name ctx =
  let mem = Engine.Ctx.memory ctx in
  let n = Engine.Ctx.n ctx in
  let id = Engine.Ctx.register_lock ctx name in
  let arr field init = Memory.alloc_per_process mem ~name:(name ^ "." ^ field) init in
  let choosing = arr "choosing" 0 in
  let number = arr "number" 0 in
  let state = arr "state" idle in
  let acquire ~pid =
    let s = Api.read state.(pid) in
    (* BCSR: still numbered and marked InCS means the crash hit the CS —
       straight back in.  InCS with number 0 means the crash hit the middle
       of Exit (number already relinquished): finish the exit first, then
       compete afresh. *)
    if s = in_cs && Api.read number.(pid) <> 0 then ()
    else begin
      if s = in_cs then Api.write state.(pid) idle;
      let s = Api.read state.(pid) in
      if s = idle || Api.read number.(pid) = 0 then begin
        (* Doorway. *)
        Api.write choosing.(pid) 1;
        let maxn = ref 0 in
        for j = 0 to n - 1 do
          let nj = Api.read number.(j) in
          if nj > !maxn then maxn := nj
        done;
        Api.write number.(pid) (!maxn + 1);
        Api.write choosing.(pid) 0;
        Api.write state.(pid) chosen
      end
      else if s <> chosen then Api.write state.(pid) chosen;
      let wait cell cond =
        if abortable then begin
          Api.spin_abortable cell cond;
          if Api.poll_abort () then raise Api.Abort_signal
        end
        else Api.spin_until cell cond
      in
      let my = Api.read number.(pid) in
      for j = 0 to n - 1 do
        if j <> pid then begin
          wait choosing.(j) (Api.Eq 0);
          (* Wait while (number.(j), j) precedes (my, pid), lexicographically. *)
          let precedes nj = nj <> 0 && (nj < my || (nj = my && j < pid)) in
          wait number.(j) (Api.Pred (fun v -> not (precedes v)))
        end
      done;
      Api.write state.(pid) in_cs
    end
  in
  let release ~pid =
    (* Relinquish the number first: a crash in between leaves state = InCS
       with number 0, which acquire resolves as "finish the exit" rather
       than as a CS reentry (releasing the number has already admitted the
       next process — re-entering would break ME). *)
    Api.write number.(pid) 0;
    Api.write state.(pid) idle
  in
  (* Withdrawing from the bakery is release in miniature: relinquish the
     number (which unblocks every peer waiting on it) and fall back to
     Idle.  There is no hand-off to race — admission is by observation of
     the other tickets, not by a grant — so the abort always succeeds.
     Both writes are idempotent, matching the lock's recovery story. *)
  let try_abort ~pid =
    Api.write number.(pid) 0;
    Api.write state.(pid) idle;
    Harness.Aborted
  in
  if abortable then Lock.instrument ~id ~name ~try_abort ~acquire ~release ()
  else Lock.instrument ~id ~name ~acquire ~release ()

let make ctx = make_named ~name:"bakery" ctx

let make_abort ctx = make_named ~abortable:true ~name:"bakery-abort" ctx
