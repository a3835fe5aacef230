(* The engine's online folds: what it measures of a run as the run goes,
   over the notes, crashes and RMR charges it handles one at a time,
   whatever the event sink.  One submodule per fold holds its state, one
   [reset] that is the only place its start values are written ([create]
   allocates and calls it), its hooks, its part of the state key and its
   facts.  {!t} is every fold an arena runs; {!note}, {!crash} and
   {!charge} are the engine's calls into them.  No hook allocates unless
   it logs a fact. *)

(* The facts the folds leave in a run's result, which {!Engine} exports. *)
module Types = struct
  type passage = { super : int; rmr : int; completed : bool; latency : int }
  (** One passage: [super] identifies the super-passage it belongs to (the
      index of the request being worked on), [rmr] the remote references it
      incurred, [completed] whether it ended with a satisfied request rather
      than a crash, [latency] its span in global engine steps (a fairness /
      waiting-time measure under contention). *)

  type lock_stats = {
    lock_name : string;
    max_occupancy : int;  (** max simultaneous holders observed *)
    unsafe_crashes : int;  (** crashes inside this lock's sensitive window *)
  }

  (** How one delivered abort signal resolved. *)
  type abort_result =
    | Res_aborted  (** the victim ran the abort protocol and abandoned the request *)
    | Res_lost_race  (** the abort raced a handoff and lost: the victim acquired instead *)
    | Res_acquired
        (** the victim acquired normally before observing the signal — the
            only resolution a non-abortable lock offers *)
    | Res_crashed  (** the victim crashed while the signal was pending *)
    | Res_pending  (** the run ended with the signal unresolved *)

  type abort_stat = {
    ab_pid : int;
    ab_signal_step : int;  (** global step the signal was delivered at *)
    ab_op_index : int;  (** victim op index of an on-op signal; [-1] for async deliveries *)
    ab_resolved_step : int;  (** [-1] while pending *)
    ab_own_steps : int;
        (** the victim's own steps from signal to resolution — the quantity
            {!Rme_check.Props.abort_liveness} bounds *)
    ab_rmr : int;  (** RMRs the victim incurred between signal and resolution *)
    ab_result : abort_result;
  }

  let pp_abort_result ppf r =
    Fmt.string ppf
      (match r with
      | Res_aborted -> "aborted"
      | Res_lost_race -> "lost-race"
      | Res_acquired -> "acquired"
      | Res_crashed -> "crashed"
      | Res_pending -> "pending")

  (** {1 Online history monitors}

      Three properties of a run's history that {!Rme_check.Props} checks
      are folded as the run goes (the system recovery, weak ME and lost
      wakeup folds below), whatever the event sink: a run that keeps no
      history is judged exactly as one that keeps it.  Each leaves the
      facts its check needs in {!monitors}.  None of their state is in the
      state key. *)

  type skipped_recovery = {
    sr_pid : int;
    sr_step : int;  (** the step of its [Cs_begin] *)
    sr_crash_step : int;  (** the step of its last crash before it *)
  }
  (** A process that entered the CS after a crash without a [Req_begin] in
      between. *)

  type weak_me_breach = {
    wm_lock : int;
    wm_step : int;  (** the acquisition's step *)
    wm_holders : int;  (** holders of the lock, the acquirer included *)
    wm_live : int;  (** unsafe failures w.r.t. the lock whose consequence interval was open *)
  }
  (** An acquisition ([Lock_acquired], or [Abort_lost_race]: the abort lost
      the race and the process holds the lock) that left the lock with more
      than one holder per open unsafe failure plus one. *)

  type overtake = {
    ov_step : int;  (** the step of the [Lock_released] *)
    ov_waiter : int;  (** the highest pid it brought to the count *)
    ov_lock : int;
  }
  (** A release by another process of the lock a waiter's unresolved
      [Lock_enter] names. *)

  type parked = {
    pk_pid : int;  (** the highest pid with an unresolved [Lock_enter] *)
    pk_lock : int;  (** the lock that note names *)
    pk_count : int;  (** processes with an unresolved [Lock_enter] *)
  }

  type monitors = {
    skipped_recovery : skipped_recovery option;
        (** system recovery: the first process to skip its restart, if any *)
    weak_me_breaches : weak_me_breach list;
        (** Theorem 4.2's interval form, for every lock id: each breached
            lock's first breach, in the order they happened.  A failure is
            unsafe w.r.t. the locks in its [unsafe_wrt]; its consequence
            interval stays open while some request outstanding at the
            failure ([Req_begin] to [Req_done]) is still outstanding. *)
    overtakes : overtake array;
        (** lost wakeup: [overtakes.(c - 1)] is the first release that
            brought some waiter to [c] overtakes.  A waiter is a process
            between its [Lock_enter] of a lock and its [Lock_acquired],
            [Abort_done] or [Abort_lost_race] of that lock (a crash or a
            later [Lock_enter] ends the wait); each [Lock_released] of the
            lock by another process overtakes it once. *)
    parked_at_end : parked option;  (** waiters left when the run ended *)
    held_at_end : bool;
        (** some lock's last acquisition ([Lock_acquired] or
            [Abort_lost_race]) was not followed by its acquirer's
            [Lock_released] when the run ended *)
  }
end

include Types

(* FNV-style fold for the state key.  Stays in [0, max_int]. *)
let hmix h x = (h lxor x) * 0x100000001b3 land max_int

let rec hmix_ids h = function [] -> h | l :: rest -> hmix_ids (hmix h (l + 1)) rest

(* [l] without [id], in order, sharing the tail past [id]'s last
   occurrence: the common case, [id] at the head and nowhere else (the
   last lock entered is the first one left), returns the tail and
   allocates nothing, and neither does an [l] without [id]. *)
let rec without id = function
  | [] -> []
  | x :: rest as l ->
      if x = id then without id rest
      else
        let rest' = without id rest in
        if rest' == rest then l else x :: rest'

(* [create]'s last step: the record, its start values written by [reset]. *)
let fresh reset x =
  reset x;
  x

(* Occupancy and unsafe windows: the locks each process holds and the
   windows it has open, and by lock id the holders (the pids whose
   [holding] names it, so a second acquisition without a release adds
   none), their maximum and the crashes inside the lock's window.  Keyed
   whole. *)
module Occupancy = struct
  type t = {
    unsafe_open : int list array;
    holding : int list array;
    occupancy : int array;  (* by lock id, like the two below *)
    occupancy_max : int array;
    unsafe_crashes : int array;
  }

  let reset o =
    Array.fill o.unsafe_open 0 (Array.length o.unsafe_open) [];
    Array.fill o.holding 0 (Array.length o.holding) [];
    Array.fill o.occupancy 0 (Array.length o.occupancy) 0;
    Array.fill o.occupancy_max 0 (Array.length o.occupancy_max) 0;
    Array.fill o.unsafe_crashes 0 (Array.length o.unsafe_crashes) 0

  let create ~n ~nlocks =
    fresh reset
      { unsafe_open = Array.make n []; holding = Array.make n []; occupancy = Array.make nlocks 0;
        occupancy_max = Array.make nlocks 0; unsafe_crashes = Array.make nlocks 0 }

  let open_unsafe o pid lock =
    let l = o.unsafe_open.(pid) in
    if not (List.mem lock l) then o.unsafe_open.(pid) <- lock :: l

  let close_unsafe o pid lock = o.unsafe_open.(pid) <- without lock o.unsafe_open.(pid)

  let enter o pid id =
    if not (List.mem id o.holding.(pid)) then begin
      o.occupancy.(id) <- o.occupancy.(id) + 1;
      if o.occupancy.(id) > o.occupancy_max.(id) then o.occupancy_max.(id) <- o.occupancy.(id)
    end;
    o.holding.(pid) <- id :: o.holding.(pid)

  let leave o pid id =
    if List.mem id o.holding.(pid) then begin
      o.holding.(pid) <- without id o.holding.(pid);
      o.occupancy.(id) <- o.occupancy.(id) - 1
    end

  let rec count_unsafe o = function
    | [] -> ()
    | lock :: rest ->
        o.unsafe_crashes.(lock) <- o.unsafe_crashes.(lock) + 1;
        count_unsafe o rest

  let rec leave_all o pid = function
    | [] -> ()
    | lock :: rest ->
        leave o pid lock;
        leave_all o pid rest

  (* The crash is unsafe w.r.t. every window [pid] has open, and ends its
     holds and windows. *)
  let crash o pid =
    count_unsafe o o.unsafe_open.(pid);
    leave_all o pid o.holding.(pid);
    o.unsafe_open.(pid) <- []

  let key_proc o p h = hmix (hmix_ids (hmix (hmix_ids h o.unsafe_open.(p)) (-2)) o.holding.(p)) (-3)

  let key_lock o l = hmix (hmix (hmix 0 o.occupancy.(l)) o.occupancy_max.(l)) o.unsafe_crashes.(l)
end

(* Application-CS occupancy: who is between its [Cs_begin] and [Cs_end],
   their count and its maximum, the mutual-exclusion witness.  Keyed
   whole. *)
module App_cs = struct
  type t = { in_cs : bool array; mutable count : int; mutable max : int }

  let reset a =
    Array.fill a.in_cs 0 (Array.length a.in_cs) false;
    a.count <- 0;
    a.max <- 0

  let create ~n = fresh reset { in_cs = Array.make n false; count = 0; max = 0 }

  let enter a pid =
    if not a.in_cs.(pid) then begin
      a.in_cs.(pid) <- true;
      a.count <- a.count + 1;
      if a.count > a.max then a.max <- a.count
    end

  (* At [Cs_end], and at a crash. *)
  let leave a pid =
    if a.in_cs.(pid) then begin
      a.in_cs.(pid) <- false;
      a.count <- a.count - 1
    end

  let key_proc a p h = hmix h (Bool.to_int a.in_cs.(p))
end

(* Passage statistics: each process's open passage (its super-passage,
   start step and RMRs so far), its closed passages and the highest
   BA-Lock level it reported.  Keyed but for the start steps, which are
   latencies. *)
module Passages = struct
  type t = {
    in_passage : bool array;
    rmr : int array;
    super : int array;
    start : int array;
    closed : passage Vec.t array;
    level_max : int array;
  }

  let reset ps =
    let n = Array.length ps.in_passage in
    Array.fill ps.in_passage 0 n false;
    Array.fill ps.rmr 0 n 0;
    Array.fill ps.super 0 n 0;
    Array.fill ps.start 0 n 0;
    Array.iter Vec.clear ps.closed;
    Array.fill ps.level_max 0 n 0

  let create ~n =
    fresh reset
      { in_passage = Array.make n false; rmr = Array.make n 0; super = Array.make n 0;
        start = Array.make n 0; closed = Array.init n (fun _ -> Vec.create ());
        level_max = Array.make n 0 }

  (* At [Req_done] ([completed]) and at a crash; a no-op outside a
     passage. *)
  let close ps pid ~step ~completed =
    if ps.in_passage.(pid) then begin
      Vec.push ps.closed.(pid)
        { super = ps.super.(pid); rmr = ps.rmr.(pid); completed; latency = step - ps.start.(pid) };
      ps.in_passage.(pid) <- false;
      ps.rmr.(pid) <- 0
    end

  (* A restart after a crash begins a new passage of the same
     super-passage: the super id is the index of the pending request.  A
     crash already closed its passage; a retry after an {e abort} reaches
     here with the abandoned passage still open — close it as incomplete
     so its RMRs stay accounted per passage. *)
  let request ps pid ~super ~step =
    close ps pid ~step ~completed:false;
    ps.in_passage.(pid) <- true;
    ps.super.(pid) <- super;
    ps.start.(pid) <- step;
    ps.rmr.(pid) <- 0

  let level ps pid l = if l > ps.level_max.(pid) then ps.level_max.(pid) <- l

  let charge ps pid rmr = if ps.in_passage.(pid) then ps.rmr.(pid) <- ps.rmr.(pid) + rmr

  (* The key mixes these three parts around the other folds' (see
     {!key_proc} below). *)
  let key_level ps p h = hmix (hmix h ps.level_max.(p)) (Bool.to_int ps.in_passage.(p))

  let key_open ps p h = hmix (hmix h ps.rmr.(p)) ps.super.(p)

  let key_closed ps p h =
    let h = ref h and closed = ps.closed.(p) in
    for i = 0 to Vec.length closed - 1 do
      let pa = Vec.unsafe_get closed i in
      h := hmix (hmix (hmix !h pa.super) pa.rmr) (Bool.to_int pa.completed)
    done;
    !h
end

(* System recovery: the step of each pid's last crash since its last
   [Req_begin], checked at its [Cs_begin]; the first process to enter the
   CS without restarting.  A system-wide crash crashes every live pid, so
   the per-pid mark covers both crash models.  Unkeyed. *)
module Recovery = struct
  type t = { crash_step : int array; mutable skipped : skipped_recovery option }

  let reset r =
    Array.fill r.crash_step 0 (Array.length r.crash_step) (-1);
    r.skipped <- None

  let create ~n = fresh reset { crash_step = Array.make n 0; skipped = None }

  let request r pid = r.crash_step.(pid) <- -1

  let cs_begin r pid ~step =
    let crashed = r.crash_step.(pid) in
    if crashed >= 0 && r.skipped = None then
      r.skipped <- Some { sr_pid = pid; sr_step = step; sr_crash_step = crashed }

  let crash r pid ~step = r.crash_step.(pid) <- step
end

(* Weak ME, Theorem 4.2's interval form: a failure's pending set is the
   requests outstanding at it, so the failures whose consequence interval
   is still open are those at or after the oldest outstanding request
   began.  Unkeyed. *)
module Weak_me = struct
  type t = {
    outstanding : bool array;  (* the pid has a request between Req_begin and Req_done *)
    out_since : int array;  (* [crash_seq] when that request began *)
    mutable crash_seq : int;  (* crashes so far *)
    unsafe_log : int Vec.t;  (* (crash_seq, lock id) of every unsafe failure, in crash order *)
    mutable breaches : weak_me_breach list;  (* newest first *)
  }

  let reset w =
    let n = Array.length w.outstanding in
    Array.fill w.outstanding 0 n false;
    Array.fill w.out_since 0 n 0;
    w.crash_seq <- 0;
    Vec.clear w.unsafe_log;
    w.breaches <- []

  let create ~n =
    fresh reset
      { outstanding = Array.make n false; out_since = Array.make n 0; crash_seq = 0;
        unsafe_log = Vec.create (); breaches = [] }

  let request w pid =
    if not w.outstanding.(pid) then begin
      w.outstanding.(pid) <- true;
      w.out_since.(pid) <- w.crash_seq
    end

  let request_done w pid = w.outstanding.(pid) <- false

  (* At an acquisition of lock [id] that left it [holders] holders: more
     than one needs as many open unsafe failures w.r.t. it.  Only a lock's
     first breach is kept. *)
  let acquired w id ~holders ~step =
    if holders > 1 && not (List.exists (fun b -> b.wm_lock = id) w.breaches) then begin
      let since = ref max_int in
      for p = 0 to Array.length w.outstanding - 1 do
        if w.outstanding.(p) && w.out_since.(p) < !since then since := w.out_since.(p)
      done;
      let live = ref 0 and i = ref (Vec.length w.unsafe_log - 2) in
      while !i >= 0 && Vec.unsafe_get w.unsafe_log !i >= !since do
        if Vec.unsafe_get w.unsafe_log (!i + 1) = id then incr live;
        i := !i - 2
      done;
      if holders > 1 + !live then
        let b = { wm_lock = id; wm_step = step; wm_holders = holders; wm_live = !live } in
        w.breaches <- b :: w.breaches
    end

  let rec log_unsafe w = function
    | [] -> ()
    | lock :: rest ->
        Vec.push w.unsafe_log w.crash_seq;
        Vec.push w.unsafe_log lock;
        log_unsafe w rest

  (* A crash with the windows [unsafe] open: one unsafe failure per lock. *)
  let crash w unsafe =
    log_unsafe w unsafe;
    w.crash_seq <- w.crash_seq + 1
end

(* Lost wakeup: each waiter's lock (its unresolved [Lock_enter]) and how
   many releases of it by others have overtaken it, the first release to
   bring some waiter to each count, and each lock's last acquirer until
   that one releases it.  Unkeyed. *)
module Wakeup = struct
  type t = {
    waits_on : int array;  (* lock of each pid's unresolved Lock_enter; -1 if none *)
    overtaken : int array;  (* releases of it by others since *)
    last_holder : int array;  (* by lock id: its acquirer until that one releases; -1 if none *)
    overtakes : overtake Vec.t;
  }

  let reset k =
    Array.fill k.waits_on 0 (Array.length k.waits_on) (-1);
    Array.fill k.overtaken 0 (Array.length k.overtaken) 0;
    Array.fill k.last_holder 0 (Array.length k.last_holder) (-1);
    Vec.clear k.overtakes

  let create ~n ~nlocks =
    fresh reset
      { waits_on = Array.make n 0; overtaken = Array.make n 0; last_holder = Array.make nlocks 0;
        overtakes = Vec.create () }

  let enter k pid id =
    k.waits_on.(pid) <- id;
    k.overtaken.(pid) <- 0

  (* At [Abort_done] and at an acquisition. *)
  let stop_waiting k pid id = if k.waits_on.(pid) = id then k.waits_on.(pid) <- -1

  let acquired k pid id =
    k.last_holder.(id) <- pid;
    stop_waiting k pid id

  (* A release of [id] by [pid] overtakes every other process waiting on
     it; the first release to bring some waiter to a count no waiter had
     reached is logged, naming the highest such pid. *)
  let released k pid id ~step =
    if k.last_holder.(id) = pid then k.last_holder.(id) <- -1;
    let reached = Vec.length k.overtakes and top = ref (-1) in
    for w = 0 to Array.length k.waits_on - 1 do
      if w <> pid && k.waits_on.(w) = id then begin
        let c = k.overtaken.(w) + 1 in
        k.overtaken.(w) <- c;
        if c > reached then top := w
      end
    done;
    if !top >= 0 then Vec.push k.overtakes { ov_step = step; ov_waiter = !top; ov_lock = id }

  let crash k pid = k.waits_on.(pid) <- -1

  (* The waiters left at the end: the highest pid, its lock and their
     count. *)
  let parked k =
    let top = ref (-1) and count = ref 0 in
    for pid = 0 to Array.length k.waits_on - 1 do
      if k.waits_on.(pid) >= 0 then begin
        top := pid;
        incr count
      end
    done;
    if !top < 0 then None
    else Some { pk_pid = !top; pk_lock = k.waits_on.(!top); pk_count = !count }

  let held k = Array.exists (fun pid -> pid >= 0) k.last_holder
end

(* Abort statistics: each pid's pending signal (the flag the engine
   delivers and the poll and abortable spins read, with its signal step,
   origin, and the victim's own steps and RMRs since), the entry-section
   depth and since when it has been in one, the run of consecutive aborts
   of its current super-passage, and every resolved signal.  Runs only
   under an abort plan.  Keyed but for the global-step quantities
   ([since], [signal_step]), excluded like latencies. *)
module Aborts = struct
  type t = {
    flag : bool array;
    signal_step : int array;
    origin : int array;
    own : int array;
    rmr : int array;
    streak : int array;
    depth : int array;
    since : int array;  (* step the pid entered its outermost entry section; -1 outside one *)
    stats : abort_stat Vec.t;
  }

  let reset a =
    let n = Array.length a.flag in
    Array.fill a.flag 0 n false;
    Array.fill a.signal_step 0 n (-1);
    Array.fill a.origin 0 n (-1);
    Array.fill a.own 0 n 0;
    Array.fill a.rmr 0 n 0;
    Array.fill a.streak 0 n 0;
    Array.fill a.depth 0 n 0;
    Array.fill a.since 0 n (-1);
    Vec.clear a.stats

  let create ~n =
    fresh reset
      { flag = Array.make n false; signal_step = Array.make n 0; origin = Array.make n 0;
        own = Array.make n 0; rmr = Array.make n 0; streak = Array.make n 0;
        depth = Array.make n 0; since = Array.make n 0; stats = Vec.create () }

  (* The signal the engine delivers to [pid], which is in some entry
     section and not yet signalled. *)
  let signal a pid ~step ~origin =
    a.flag.(pid) <- true;
    a.signal_step.(pid) <- step;
    a.origin.(pid) <- origin;
    a.own.(pid) <- 0;
    a.rmr.(pid) <- 0

  (* A step of [pid]'s: while its flag is up, one of the victim's own
     resolving steps, the quantity [Props.abort_liveness] bounds. *)
  let step a pid = if a.flag.(pid) then a.own.(pid) <- a.own.(pid) + 1

  let charge a pid rmr = if a.flag.(pid) then a.rmr.(pid) <- a.rmr.(pid) + rmr

  let stat a pid ~resolved result =
    {
      ab_pid = pid;
      ab_signal_step = a.signal_step.(pid);
      ab_op_index = a.origin.(pid);
      ab_resolved_step = resolved;
      ab_own_steps = a.own.(pid);
      ab_rmr = a.rmr.(pid);
      ab_result = result;
    }

  (* Close the books on [pid]'s pending signal, if any. *)
  let resolve a pid ~step result =
    if a.flag.(pid) then begin
      Vec.push a.stats (stat a pid ~resolved:step result);
      a.flag.(pid) <- false
    end

  (* [pid] leaves every entry section. *)
  let leave a pid ~streak =
    a.depth.(pid) <- 0;
    a.since.(pid) <- -1;
    a.streak.(pid) <- streak

  let enter a pid ~step =
    if a.depth.(pid) = 0 then a.since.(pid) <- step;
    a.depth.(pid) <- a.depth.(pid) + 1

  let acquired a pid ~step =
    a.depth.(pid) <- max 0 (a.depth.(pid) - 1);
    if a.depth.(pid) = 0 then begin
      resolve a pid ~step Res_acquired;
      leave a pid ~streak:0
    end

  (* The abort completed ([Res_aborted]: one more in the streak), raced
     the handoff and lost ([Res_lost_race]), or a crash ended it
     ([Res_crashed]). *)
  let resolved a pid ~step result =
    resolve a pid ~step result;
    leave a pid ~streak:(match result with Res_aborted -> a.streak.(pid) + 1 | _ -> 0)

  let key_proc a p h =
    let h = hmix h (Bool.to_int a.flag.(p)) in
    let h = hmix h a.own.(p) in
    let h = hmix h a.rmr.(p) in
    hmix (hmix h a.streak.(p)) a.depth.(p)

  let key_stats a h =
    let h = ref h in
    for i = 0 to Vec.length a.stats - 1 do
      let s = Vec.unsafe_get a.stats i in
      h :=
        hmix
          (hmix (hmix (hmix !h (s.ab_pid + 1)) s.ab_own_steps) s.ab_rmr)
          (match s.ab_result with
          | Res_aborted -> 1
          | Res_lost_race -> 2
          | Res_acquired -> 3
          | Res_crashed -> 4
          | Res_pending -> 5)
    done;
    !h

  (* The resolved signals in resolution order, then the pending ones by
     pid. *)
  let facts a =
    let pending = ref [] in
    for pid = Array.length a.flag - 1 downto 0 do
      if a.flag.(pid) then pending := stat a pid ~resolved:(-1) Res_pending :: !pending
    done;
    Vec.to_list a.stats @ !pending
end

type t = {
  occupancy : Occupancy.t;
  app_cs : App_cs.t;
  passages : Passages.t;
  recovery : Recovery.t;
  weak_me : Weak_me.t;
  wakeup : Wakeup.t;
  aborts : Aborts.t;
}

let create ~n ~nlocks =
  {
    occupancy = Occupancy.create ~n ~nlocks;
    app_cs = App_cs.create ~n;
    passages = Passages.create ~n;
    recovery = Recovery.create ~n;
    weak_me = Weak_me.create ~n;
    wakeup = Wakeup.create ~n ~nlocks;
    aborts = Aborts.create ~n;
  }

let reset f =
  Occupancy.reset f.occupancy;
  App_cs.reset f.app_cs;
  Passages.reset f.passages;
  Recovery.reset f.recovery;
  Weak_me.reset f.weak_me;
  Wakeup.reset f.wakeup;
  Aborts.reset f.aborts

(* An acquisition of lock [id] by [pid]: a [Lock_acquired], or an
   [Abort_lost_race], after which the process holds the lock even though
   [Lock_acquired] never fired. *)
let acquired f pid id ~step =
  Wakeup.acquired f.wakeup pid id;
  Occupancy.enter f.occupancy pid id;
  Weak_me.acquired f.weak_me id ~holders:f.occupancy.occupancy.(id) ~step

(* Every lock note must name a registered lock: another id would index
   past the per-lock slots, or pass unnoticed where no slot is read. *)
let check_lock f (n : Event.note) id =
  let nlocks = Array.length f.occupancy.occupancy in
  if id < 0 || id >= nlocks then
    invalid_arg
      (Fmt.str "Engine: note %a names lock %d, but %d lock(s) are registered" Event.pp_note n id
         nlocks)

(* [pid]'s note [n] at [step], [super] its satisfied requests so far.
   [abort] (an abort plan runs) gates the abort statistics. *)
let note f pid (n : Event.note) ~step ~super ~abort =
  (match n with
  | Lock_enter id | Lock_acquired id | Lock_release id | Lock_released id | Abort_done id
  | Abort_lost_race id ->
      check_lock f n id
  | Seg _ | Level _ | Path _ | Abort_signal | Abort_request _ | Custom _ -> ());
  match n with
  | Seg Ncs_begin -> ()
  | Seg Req_begin ->
      Recovery.request f.recovery pid;
      Weak_me.request f.weak_me pid;
      Passages.request f.passages pid ~super ~step
  | Seg Cs_begin ->
      Recovery.cs_begin f.recovery pid ~step;
      App_cs.enter f.app_cs pid
  | Seg Cs_end -> App_cs.leave f.app_cs pid
  | Seg Req_done ->
      Weak_me.request_done f.weak_me pid;
      Passages.close f.passages pid ~step ~completed:true;
      (* Defensive: a request can only finish outside every entry section,
         so clear any stale tracking. *)
      if abort then Aborts.leave f.aborts pid ~streak:0
  | Lock_enter id ->
      Wakeup.enter f.wakeup pid id;
      if abort then Aborts.enter f.aborts pid ~step
  | Lock_acquired id ->
      if abort then Aborts.acquired f.aborts pid ~step;
      acquired f pid id ~step
  | Lock_release id -> Occupancy.leave f.occupancy pid id
  | Lock_released id -> Wakeup.released f.wakeup pid id ~step
  | Level l -> Passages.level f.passages pid l
  | Abort_done id ->
      Wakeup.stop_waiting f.wakeup pid id;
      if abort then Aborts.resolved f.aborts pid ~step Res_aborted
  | Abort_lost_race id ->
      if abort then Aborts.resolved f.aborts pid ~step Res_lost_race;
      acquired f pid id ~step
  | Abort_signal | Abort_request _ | Path _ | Custom _ -> ()

(* A crash of [pid] at [step]. *)
let crash f pid ~step ~abort =
  Weak_me.crash f.weak_me f.occupancy.unsafe_open.(pid);
  Occupancy.crash f.occupancy pid;
  Recovery.crash f.recovery pid ~step;
  Wakeup.crash f.wakeup pid;
  App_cs.leave f.app_cs pid;
  Passages.close f.passages pid ~step ~completed:false;
  if abort then Aborts.resolved f.aborts pid ~step Res_crashed

(* [rmr] > 0 remote references charged to [pid]. *)
let charge f pid rmr ~abort =
  Passages.charge f.passages pid rmr;
  if abort then Aborts.charge f.aborts pid rmr

(* Process [p]'s part of the state key, mixed into [h].  The folds' parts
   interleave in the order the key has always had: the explorer's state
   cache is direct-mapped, so another order would move its slots. *)
let key_proc f p h =
  let h = Passages.key_level f.passages p h in
  let h = App_cs.key_proc f.app_cs p h in
  let h = Passages.key_open f.passages p h in
  let h = Aborts.key_proc f.aborts p h in
  Passages.key_closed f.passages p (Occupancy.key_proc f.occupancy p h)

(* A run with nothing to report shares this one. *)
let no_monitors =
  {
    skipped_recovery = None;
    weak_me_breaches = [];
    overtakes = [||];
    parked_at_end = None;
    held_at_end = false;
  }

(* The monitors' facts, with the waiters and holders left at the end. *)
let monitors f =
  let parked = Wakeup.parked f.wakeup and held = Wakeup.held f.wakeup in
  let w = f.weak_me and k = f.wakeup in
  if
    f.recovery.skipped = None && w.breaches = [] && Vec.is_empty k.overtakes && parked = None
    && not held
  then no_monitors
  else
    {
      skipped_recovery = f.recovery.skipped;
      weak_me_breaches = List.rev w.breaches;
      overtakes = Vec.to_array k.overtakes;
      parked_at_end = parked;
      held_at_end = held;
    }
