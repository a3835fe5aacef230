open Rme_sim

let mutual_exclusion (res : Engine.result) =
  if res.Engine.cs_max <= 1 then None
  else Some (Printf.sprintf "mutual exclusion violated: %d processes in CS" res.Engine.cs_max)

let lock_mutual_exclusion (res : Engine.result) ~lock_id =
  let s = res.Engine.locks.(lock_id) in
  if s.Engine.max_occupancy <= 1 then None
  else
    Some
      (Printf.sprintf "lock %s held by %d processes simultaneously" s.Engine.lock_name
         s.Engine.max_occupancy)

let starvation_freedom (res : Engine.result) ~requests =
  match res.Engine.stall with
  | Some s -> Some (Fmt.str "%a" Engine.pp_stall s)
  | None ->
    let bad = ref None in
    Array.iteri
      (fun pid (p : Engine.proc_stats) ->
        if !bad = None && p.completed < requests then
          bad := Some (Printf.sprintf "p%d starved: %d/%d requests" pid p.completed requests))
      res.Engine.procs;
    !bad

let responsiveness (res : Engine.result) ~lock_id =
  let s = res.Engine.locks.(lock_id) in
  if s.Engine.max_occupancy <= 1 + s.Engine.unsafe_crashes then None
  else
    Some
      (Printf.sprintf "%s: occupancy %d with only %d unsafe failures" s.Engine.lock_name
         s.Engine.max_occupancy s.Engine.unsafe_crashes)

(* Interval form of Theorem 4.2: the engine's weak-ME monitor keeps each
   lock's first breach ({!Engine.weak_me_breach}). *)
let weak_me_intervals (res : Engine.result) ~lock_id =
  List.find_map
    (fun (b : Engine.weak_me_breach) ->
      if b.wm_lock <> lock_id then None
      else
        Some
          (Printf.sprintf "step %d: %d holders with only %d active unsafe failures" b.wm_step
             b.wm_holders b.wm_live))
    res.Engine.monitors.weak_me_breaches

(* Count [pid]'s instruction events from index [start] up to its first
   [is_to] note; [None] when [pid] crashes first or the history ends. *)
let count_ops events pid ~is_to start =
  let n = Array.length events in
  let rec count i acc =
    if i >= n then None
    else
      match events.(i) with
      | Event.Note { pid = p; note; _ } when p = pid && is_to note -> Some acc
      | Event.Op { pid = p; _ } when p = pid -> count (i + 1) (acc + 1)
      | Event.Crash { pid = p; _ } when p = pid -> None (* segment interrupted *)
      | _ -> count (i + 1) acc
  in
  count start 0

let check_segments (res : Engine.result) ~pid_of ~is_from ~is_to ~bound ~what =
  let events = Array.of_list res.Engine.events in
  let n = Array.length events in
  let violation = ref None in
  let rec scan i =
    if i < n && !violation = None then begin
      (match events.(i) with
      | Event.Note { pid; note; _ } when pid_of pid && is_from note -> (
          match count_ops events pid ~is_to (i + 1) with
          | Some ops when ops > bound ->
              violation := Some (Printf.sprintf "p%d: %s took %d > %d steps" pid what ops bound)
          | Some _ | None -> ())
      | _ -> ());
      scan (i + 1)
    end
  in
  scan 0;
  !violation

let bounded_exit (res : Engine.result) ~lock_id ~bound =
  check_segments res
    ~pid_of:(fun _ -> true)
    ~is_from:(fun note -> note = Event.Lock_release lock_id)
    ~is_to:(fun note -> note = Event.Lock_released lock_id)
    ~bound ~what:"exit"

(* The post-crash scan: after each crash whose [holding] list satisfies
   [triggers], count the crashed pid's ops from its next Req_begin up to
   its first [target] note.  A second crash of that pid before either
   note abandons the measurement. *)
let check_after_crash (res : Engine.result) ~triggers ~target ~bound ~what =
  let events = Array.of_list res.Engine.events in
  let n = Array.length events in
  let rec next_req_begin pid j =
    if j >= n then None
    else
      match events.(j) with
      | Event.Note { pid = p; note = Event.Seg Event.Req_begin; _ } when p = pid -> Some (j + 1)
      | Event.Crash { pid = p; _ } when p = pid -> None (* crashed again first *)
      | _ -> next_req_begin pid (j + 1)
  in
  let violation = ref None in
  Array.iteri
    (fun i ev ->
      if !violation = None then
        match ev with
        | Event.Crash { pid; holding; _ } when triggers holding -> (
            match
              Option.bind (next_req_begin pid (i + 1))
                (count_ops events pid ~is_to:(fun note -> note = target))
            with
            | Some ops when ops > bound ->
                violation := Some (Printf.sprintf "p%d: %s took %d > %d steps" pid what ops bound)
            | Some _ | None -> ())
        | _ -> ())
    events;
  !violation

let bounded_recovery res ~lock_id ~bound =
  (* After any crash, the steps from the next Req_begin to the start of this
     lock's Enter segment cover the Recover work re-done by the restart. *)
  check_after_crash res
    ~triggers:(fun _ -> true)
    ~target:(Event.Lock_enter lock_id) ~bound ~what:"recovery"

let bcsr res ~lock_id ~bound =
  (* After a crash inside this lock's CS, the steps from the next Req_begin
     back into it. *)
  check_after_crash res ~triggers:(List.mem lock_id)
    ~target:(Event.Lock_acquired lock_id) ~bound ~what:"CS reentry"

let fcfs (res : Engine.result) ~tail_cell =
  let fas_order =
    List.filter_map
      (function
        | Event.Op { kind = "fas"; pid; cell; _ } when cell = tail_cell -> Some pid | _ -> None)
      res.Engine.events
  in
  let cs_order =
    List.filter_map
      (function
        | Event.Note { note = Event.Seg Event.Cs_begin; pid; _ } -> Some pid | _ -> None)
      res.Engine.events
  in
  if fas_order = cs_order then None
  else
    Some
      (Fmt.str "FCFS violated: append order %a, CS order %a"
         Fmt.(Dump.list int)
         fas_order
         Fmt.(Dump.list int)
         cs_order)

let super_adaptivity (res : Engine.result) =
  let x =
    Array.fold_left (fun acc (p : Engine.proc_stats) -> max acc p.max_level) 0 res.Engine.procs
  in
  let need = x * (x - 1) / 2 in
  if res.Engine.total_crashes >= need then None
  else
    Some
      (Printf.sprintf "level %d reached with only %d crashes (Theorem 5.17 needs >= %d)" x
         res.Engine.total_crashes need)

let failure_free_rmr (res : Engine.result) ~bound =
  if res.Engine.total_crashes > 0 then None
  else begin
    let bad = ref None in
    Array.iteri
      (fun pid (p : Engine.proc_stats) ->
        if !bad = None then
          List.iter
            (fun (pass : Engine.passage) ->
              if !bad = None && pass.rmr > bound then
                bad :=
                  Some
                    (Printf.sprintf "p%d: failure-free passage cost %d > %d RMRs" pid pass.rmr
                       bound))
            p.passages)
      res.Engine.procs;
    !bad
  end

(* After a system-wide crash every process's continuation is gone, so no
   process may reach the CS again without first restarting a passage: its
   next [Cs_begin] must be preceded by a [Req_begin] emitted after the
   crash.  A violation means a continuation (or the CS occupancy it
   implies) survived the whole-system restart — the engine erasure or a
   lock's recovery path is broken.  A system crash crashes every live
   process, so the engine's per-process monitor covers both models. *)
let system_recovery (res : Engine.result) =
  Option.map
    (fun (s : Engine.skipped_recovery) ->
      Printf.sprintf
        "p%d entered the CS at step %d without restarting its passage after crashing at step %d"
        s.sr_pid s.sr_step s.sr_crash_step)
    res.Engine.monitors.skipped_recovery

(* Every abort signal must resolve — Abort_done, Abort_lost_race,
   acquisition, or a crash — within [bound] of the victim's own steps.  The
   engine accounts ab_own_steps for pending signals too, so a signal still
   unresolved when the run ends is judged by the same yardstick: over
   budget is a violation, under budget is inconclusive (pass).  Vacuous
   when the lock has no abort path ([supported = false]): the only
   resolution a legacy lock offers is the eventual acquisition, which may
   legitimately take arbitrarily long. *)
let abort_liveness (res : Engine.result) ~bound ~supported =
  if not supported then None
  else
    List.fold_left
      (fun acc (a : Engine.abort_stat) ->
        match acc with
        | Some _ -> acc
        | None ->
            if a.ab_own_steps > bound then
              Some
                (Printf.sprintf "p%d: abort signal at step %d %s after %d > %d own steps"
                   a.ab_pid a.ab_signal_step
                   (if a.ab_result = Engine.Res_pending then "still unresolved"
                    else Fmt.str "resolved as %a" Engine.pp_abort_result a.ab_result)
                   a.ab_own_steps bound)
            else None)
      None res.Engine.aborts

(* A lost wakeup is a dropped hand-off: some process parks waiting for a
   grant that was posted and then destroyed (typically by a broken abort
   path), so it waits forever while the lock is — per the event history —
   not held by anyone.  Two observable signatures, both checked:

   - overtaking: a waiter's unresolved [Lock_enter] spans [bound] complete
     passages (acquired -> released) of the same lock by other processes.
     Correct hand-off locks admit a registered waiter within O(n)
     passages, so a generously linear [bound] separates the two.  The
     engine logs the first release to reach each count, so the violation
     is the one that first reached [bound].
   - stalled-free: the run ends in a stall with some process parked in an
     entry section while no process holds any lock. *)
let no_lost_wakeup (res : Engine.result) ~bound =
  let m = res.Engine.monitors in
  let count = max 1 bound in
  if count <= Array.length m.overtakes then
    let o = m.overtakes.(count - 1) in
    Some
      (Printf.sprintf
         "p%d waiting on lock %d overtaken by %d complete passages (>= %d) by step %d" o.ov_waiter
         o.ov_lock count bound o.ov_step)
  else if res.Engine.deadlocked || res.Engine.stall <> None then
    match m.parked_at_end with
    | Some p when not m.held_at_end ->
        Some
          (Printf.sprintf
             "run stalled with p%d (and %d more) parked in lock %d's entry section while no \
              process holds any lock — a hand-off was lost"
             p.pk_pid (p.pk_count - 1) p.pk_lock)
    | Some _ | None -> None
  else None

(* The abort protocol itself must be cheap: RMRs charged to the victim
   between the signal and an [Aborted] / [Acquired_instead] resolution.
   Resolutions by acquisition or crash are not abort-protocol work and are
   exempt. *)
let abort_rmr (res : Engine.result) ~bound =
  List.fold_left
    (fun acc (a : Engine.abort_stat) ->
      match acc with
      | Some _ -> acc
      | None -> (
          match a.ab_result with
          | Engine.Res_aborted | Engine.Res_lost_race ->
              if a.ab_rmr > bound then
                Some
                  (Printf.sprintf "p%d: abort at step %d cost %d > %d RMRs (%s)" a.ab_pid
                     a.ab_signal_step a.ab_rmr bound
                     (Fmt.str "%a" Engine.pp_abort_result a.ab_result))
              else None
          | Engine.Res_acquired | Engine.Res_crashed | Engine.Res_pending -> None))
    None res.Engine.aborts

let all_satisfied (res : Engine.result) ~n ~requests =
  (not res.Engine.deadlocked) && (not res.Engine.timed_out)
  && Engine.total_completed res = n * requests

type abort_expect = { liveness_bound : int; rmr_bound : int; overtake_bound : int; supported : bool }

let default_abort_expect =
  { liveness_bound = 400; rmr_bound = 60; overtake_bound = 24; supported = true }

let check_battery ?abort (res : Engine.result) ~requests ~weak_lock_ids =
  let battery =
    [
      ( "mutual-exclusion",
        if weak_lock_ids = [] then mutual_exclusion res
        else
          (* Weakly recoverable application locks may overlap in CS, but
             only within the responsiveness envelope of each weak lock. *)
          List.fold_left
            (fun acc id -> match acc with Some _ -> acc | None -> weak_me_intervals res ~lock_id:id)
            None weak_lock_ids );
      ("starvation-freedom", starvation_freedom res ~requests);
      ("super-adaptivity", super_adaptivity res);
      ("system-recovery", system_recovery res);
    ]
    @
    match abort with
    | None -> []
    | Some { liveness_bound; rmr_bound; overtake_bound; supported } ->
        [
          ("abort-liveness", abort_liveness res ~bound:liveness_bound ~supported);
          ("no-lost-wakeup", no_lost_wakeup res ~bound:overtake_bound);
          ("abort-rmr", abort_rmr res ~bound:rmr_bound);
        ]
  in
  List.filter_map (fun (name, r) -> Option.map (fun msg -> name ^ ": " ^ msg) r) battery
