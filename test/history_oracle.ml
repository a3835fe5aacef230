(* The reference forms of the three history properties the engine folds
   online ({!Engine.monitors}): each replays a recorded event history
   ([record] on) and returns the verdict string {!Props} gives, so a
   differential test can hold the engine's folds to them.  They keep the
   plain data structures the definitions suggest — hash tables and lists,
   no incremental shortcuts. *)

open Rme_sim

(* Interval form of Theorem 4.2.  Replays the event log tracking, per
   moment: the lock's holder count, the set of in-flight super-passages, and
   the still-active unsafe failures (consequence interval = until every
   super-passage pending at the failure is satisfied).  An [Abort_lost_race]
   acquires the lock like a [Lock_acquired]. *)
let weak_me_intervals (events : Event.t list) ~lock_id =
  let holders = Hashtbl.create 8 in
  (* pid -> super currently in flight (outstanding request) *)
  let outstanding : (int, int) Hashtbl.t = Hashtbl.create 8 in
  (* active unsafe failures: list of pending-sets, each a (pid, super) list *)
  let active : (int * int) list ref list ref = ref [] in
  let violation = ref None in
  let prune () =
    active :=
      List.filter
        (fun pending ->
          pending :=
            List.filter
              (fun (pid, super) ->
                match Hashtbl.find_opt outstanding pid with
                | Some s -> s = super
                | None -> false)
              !pending;
          !pending <> [])
        !active
  in
  List.iter
    (fun ev ->
      if !violation = None then
        match ev with
        | Event.Note { pid; super; note = Event.Seg Event.Req_begin; _ } ->
            if not (Hashtbl.mem outstanding pid) then Hashtbl.replace outstanding pid super
        | Event.Note { pid; note = Event.Seg Event.Req_done; _ } ->
            Hashtbl.remove outstanding pid;
            prune ()
        | Event.Note { pid; step; note = Event.Lock_acquired id | Event.Abort_lost_race id; _ }
          when id = lock_id ->
            Hashtbl.replace holders pid ();
            let k = Hashtbl.length holders in
            prune ();
            let live = List.length !active in
            if k > 1 + live then
              violation :=
                Some
                  (Printf.sprintf "step %d: %d holders with only %d active unsafe failures" step k
                     live)
        | Event.Note { pid; note = Event.Lock_release id; _ } when id = lock_id ->
            Hashtbl.remove holders pid
        | Event.Crash { pid; unsafe_wrt; holding; _ } ->
            if List.mem lock_id holding then Hashtbl.remove holders pid;
            if List.mem lock_id unsafe_wrt then begin
              let pending = Hashtbl.fold (fun p s acc -> (p, s) :: acc) outstanding [] in
              active := ref pending :: !active
            end
        (* a system crash is followed by per-pid Crash events; those carry
           the holder/window bookkeeping *)
        | Event.Sys_crash _ | Event.Note _ | Event.Op _ -> ())
    events;
  !violation

(* No process reaches the CS after a crash without a [Req_begin] in
   between. *)
let system_recovery (events : Event.t list) =
  let needs_recovery : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let violation = ref None in
  List.iter
    (fun ev ->
      if !violation = None then
        match ev with
        (* A system crash is followed by one per-pid [Crash] event per
           victim at the same step, so marking on [Crash] covers both the
           per-process and the system-wide model. *)
        | Event.Crash { pid; step; _ } -> Hashtbl.replace needs_recovery pid step
        | Event.Note { pid; note = Event.Seg Event.Req_begin; _ } ->
            Hashtbl.remove needs_recovery pid
        | Event.Note { pid; step; note = Event.Seg Event.Cs_begin; _ } -> (
            match Hashtbl.find_opt needs_recovery pid with
            | Some crash_step ->
                violation :=
                  Some
                    (Printf.sprintf
                       "p%d entered the CS at step %d without restarting its passage after \
                        crashing at step %d"
                       pid step crash_step)
            | None -> ())
        | Event.Sys_crash _ | Event.Note _ | Event.Op _ -> ())
    events;
  !violation

(* A waiter's unresolved [Lock_enter] overtaken by [bound] complete
   passages of the same lock by others, or, when the run [stalled]
   (deadlocked, or timed out with a stall verdict), a waiter parked while
   no lock is held. *)
let no_lost_wakeup (events : Event.t list) ~n ~stalled ~bound =
  (* waiting.(pid) = Some (lock id, passages by others since Lock_enter) *)
  let waiting = Array.make n None in
  let holders : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let violation = ref None in
  List.iter
    (fun ev ->
      if !violation = None then
        match ev with
        | Event.Note { pid; note = Event.Lock_enter id; _ } -> waiting.(pid) <- Some (id, 0)
        | Event.Note { pid; note = Event.Lock_acquired id; _ } -> (
            Hashtbl.replace holders id pid;
            match waiting.(pid) with Some (w, _) when w = id -> waiting.(pid) <- None | _ -> ())
        | Event.Note { pid; step; note = Event.Lock_released id; _ } ->
            if Hashtbl.find_opt holders id = Some pid then Hashtbl.remove holders id;
            Array.iteri
              (fun w -> function
                | Some (l, k) when l = id && w <> pid ->
                    if k + 1 >= bound then
                      violation :=
                        Some
                          (Printf.sprintf
                             "p%d waiting on lock %d overtaken by %d complete passages (>= %d) \
                              by step %d"
                             w id (k + 1) bound step)
                    else waiting.(w) <- Some (l, k + 1)
                | _ -> ())
              waiting
        | Event.Note { pid; note = Event.Abort_done id | Event.Abort_lost_race id; _ } -> (
            match waiting.(pid) with Some (w, _) when w = id -> waiting.(pid) <- None | _ -> ())
        | Event.Crash { pid; _ } -> waiting.(pid) <- None
        | Event.Sys_crash _ | Event.Note _ | Event.Op _ -> ())
    events;
  match !violation with
  | Some _ as v -> v
  | None ->
      if stalled then begin
        let stuck = ref [] in
        Array.iteri
          (fun pid -> function Some (id, _) -> stuck := (pid, id) :: !stuck | None -> ())
          waiting;
        match (!stuck, Hashtbl.length holders) with
        | (pid, id) :: _, 0 ->
            Some
              (Printf.sprintf
                 "run stalled with p%d (and %d more) parked in lock %d's entry section while \
                  no process holds any lock — a hand-off was lost"
                 pid
                 (List.length !stuck - 1)
                 id)
        | _ -> None
      end
      else None

(* The overtake bounds the differential checks compare at: the battery's,
   and small ones that contended runs reach. *)
let bounds = [ 0; 1; 2; 3; 5; Rme_check.Props.default_abort_expect.Rme_check.Props.overtake_bound ]

(* Every verdict the three properties give a run of [res]'s shape, with
   what each is about: weak ME for every lock id, system recovery, and no
   lost wakeup at each of [bounds]. *)
let verdicts (res : Engine.result) ~weak_me ~recovery ~lost_wakeup =
  List.init (Array.length res.Engine.locks) (fun id ->
      (Printf.sprintf "weak-me lock %d" id, weak_me id))
  @ [ ("system-recovery", recovery) ]
  @ List.map
      (fun bound -> (Printf.sprintf "no-lost-wakeup bound %d" bound, lost_wakeup bound))
      bounds

(* The verdicts from the engine's monitors in [res]. *)
let online (res : Engine.result) =
  let open Rme_check in
  verdicts res
    ~weak_me:(fun lock_id -> Props.weak_me_intervals res ~lock_id)
    ~recovery:(Props.system_recovery res)
    ~lost_wakeup:(fun bound -> Props.no_lost_wakeup res ~bound)

(* The same verdicts from [history], a recorded history of the run that
   produced [res] ([res]'s own, or a faithful replay's). *)
let reference (res : Engine.result) history =
  let n = Array.length res.Engine.procs in
  let stalled = res.Engine.deadlocked || res.Engine.stall <> None in
  verdicts res
    ~weak_me:(fun lock_id -> weak_me_intervals history ~lock_id)
    ~recovery:(system_recovery history)
    ~lost_wakeup:(fun bound -> no_lost_wakeup history ~n ~stalled ~bound)

let pp_verdicts =
  Fmt.(
    list ~sep:cut (fun ppf (what, v) ->
        pf ppf "%s: %s" what (match v with None -> "-" | Some m -> m)))

(* Fails unless the engine's facts in [res] give the verdicts the reference
   scans of [history] give. *)
let agree label (res : Engine.result) history =
  let online = online res and reference = reference res history in
  if online <> reference then
    Alcotest.failf "%s: online verdicts@.%a@.differ from the reference@.%a" label pp_verdicts
      online pp_verdicts reference

(* How many of [res]'s verdicts are violations: a differential over only
   clean verdicts would show nothing. *)
let violations res = List.length (List.filter (fun (_, v) -> v <> None) (online res))
