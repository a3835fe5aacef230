exception Crashed
(* Raised into a fiber to simulate the loss of its private state. *)

module Ctx = struct
  type t = { mem : Memory.t; lock_names : string Vec.t; mutable rewinders : (unit -> unit) list }

  let memory t = t.mem

  let n t = Memory.n t.mem

  let register_lock t name =
    Vec.push t.lock_names name;
    Vec.length t.lock_names - 1

  let on_rewind t f = t.rewinders <- f :: t.rewinders
end

include Folds.Types

type proc_stats = { passages : passage list; crashes : int; completed : int; max_level : int }

type stall_kind = Deadlock | Livelock | Starvation | Underbudget

type stall = { stall_kind : stall_kind; culprits : (int * string) list }

let pp_stall_kind ppf = function
  | Deadlock -> Fmt.string ppf "deadlock"
  | Livelock -> Fmt.string ppf "livelock"
  | Starvation -> Fmt.string ppf "starvation"
  | Underbudget -> Fmt.string ppf "underbudget"

let pp_stall ppf s =
  Fmt.pf ppf "%a: %a" pp_stall_kind s.stall_kind
    Fmt.(list ~sep:(any ", ") (fun ppf (pid, seg) -> pf ppf "p%d[%s]" pid seg))
    s.culprits

type result = {
  steps : int;
  total_rmr : int;
  rmr_by_kind : (Api.kind * int) list;
  total_crashes : int;
  system_crashes : int;
  procs : proc_stats array;
  locks : lock_stats array;
  cs_max : int;
  deadlocked : bool;
  timed_out : bool;
  stall : stall option;
  aborts : abort_stat list;
  crash_log : Crash.fired list;
  monitors : monitors;
  events : Event.t list;
}

(* A process's fiber state, which is also what its effect handler returns:
   a [Ready_*] tag from [effc] (the fiber suspended on an instruction whose
   answer is an int, a bool or unit), [Halted] from [retc]/[exnc] (the body
   returned, or unwound on [Crashed]).  The suspension itself lives in
   per-pid slots of the engine: the continuation and the view in the
   [slots] of its answer type ([ints], [bools], [units]) and the operands
   in [pend].  [Parked] and [Woken] are suspensions on a spin, whose
   answer is unit.  The tag is immediate, so a suspension allocates only
   the runtime continuation, and the tag guards every slot read: a slot
   whose continuation was already resumed is never read again, and would
   raise [Continuation_already_resumed] if it were. *)
type phase = Start | Ready_int | Ready_bool | Ready_unit | Parked | Woken | Halted

(* A view's answer type, as a witness: matching on it refines the view's
   type index, so the handler and [exec] pick a continuation slot without
   [Obj]. *)
type _ answer = A_int : int answer | A_bool : bool answer | A_unit : unit answer

let answer_type : type a. a Api.view -> a answer = function
  | Api.V_read _ -> A_int
  | Api.V_read_reg -> A_int
  | Api.V_fas_reg -> A_int
  | Api.V_fas_open_unsafe_reg -> A_int
  | Api.V_faa_reg -> A_int
  | Api.V_get_done -> A_int
  | Api.V_get_step -> A_int
  | Api.V_cas_reg -> A_bool
  | Api.V_poll_abort -> A_bool
  | Api.V_write _ -> A_unit
  | Api.V_write_reg -> A_unit
  | Api.V_write_close_unsafe_reg -> A_unit
  | Api.V_fas_persist_reg -> A_unit
  | Api.V_note_reg -> A_unit
  | Api.V_yield -> A_unit
  | Api.V_spin_reg -> A_unit
  | Api.V_spin_abortable_reg -> A_unit

(* Each pid's suspended continuation and pending view, for one answer
   type.  [k] is [[||]] until the run's first suspension of that type,
   which fills every pid's slot with its continuation. *)
type 'a slots = {
  mutable k : ('a, phase) Effect.Deep.continuation array;
  view : 'a Api.view array;
}

(* The per-process answer-stream digests fold like the state key. *)
let hmix = Folds.hmix

(* Each process's answer stream: in global resolution order, every event
   that advanced its fiber — a body dispatch, the answer fed to a suspended
   instruction, or the crash that discontinued it.  A body is a
   deterministic function of this stream, so the engine folds it into a
   per-process digest ([ans_hash]) for the state key.  An entry is a header
   — the low 3 bits hold the entry tag, the rest the pid — and an answer
   value. *)
let jt_dispatch = 0 (* pid's body (re)started: ran to its first suspension *)

let jt_crash = 1 (* pid's pending instruction discontinued by a crash *)

let jt_ans_unit = 2 (* pid's pending instruction resolved; answer in the value *)

let jt_ans_int = 3

let jt_ans_bool = 4

(* The instrumented path's scratch, kept across the runs of an arena: the
   one [op_info] every consult of a run is handed, refilled in place per
   instruction; each cell's name boxed once, by cell id ([None]: not boxed
   yet), the box reused while it holds the cell's name physically; and one
   box per distinct note payload, matched physically: the last [note_cap]
   payloads boxed, in [notes] used slots, each new one in the slot [next]
   names, round robin. *)
type consult = {
  info : Crash.op_info;
  mutable cell_names : string option array;
  note_boxes : Event.note option array;
  mutable notes : int;
  mutable next : int;
}

let note_cap = 32

let fresh_info () =
  {
    Crash.pid = 0;
    step = 0;
    op_index = 0;
    kind = Api.Nop;
    cell = None;
    note = None;
    unsafe_wrt = [];
  }

(* Shared by every engine off the instrumented path, which never writes it. *)
let no_consult = { info = fresh_info (); cell_names = [||]; note_boxes = [||]; notes = 0; next = 0 }

(* Module-level defaults, so that a run detects "no hook supplied" by
   physical equality and skips bookkeeping that exists only to feed the
   hooks. *)
let default_on_crash ~pid:_ ~step:_ = ()

let default_on_op (_ : Crash.op_info) = ()

let never_crashy (_ : int) = false

let ignore_key (_ : int array) = ()

(* A run's options, fixed across the runs of one search or campaign
   subject: [opts] builds them once and a run reads them through the
   engine's [o], so it boxes none of them.  [sink] is resolved from
   [record] and [trace_ops], and [stall_window] from [max_steps]. *)
type opts = {
  mode : [ `Auto | `Fast | `Full ];
  sink : Event.Sink.t;
  trace_ops : bool;
  max_steps : int;
  stall_window : int;
  on_crash : pid:int -> step:int -> unit;
  on_op : Crash.op_info -> unit;
  por : bool;  (* record footprints under a decision-vector pick *)
  crashy : int -> bool;
  on_key : int array -> unit;
}

let opts ?(mode = `Auto) ?sink ?(record = false) ?(trace_ops = false) ?(max_steps = 5_000_000)
    ?stall_window ?(on_crash = default_on_crash) ?(on_op = default_on_op) ?(por = false)
    ?(footprint_crashy = never_crashy) ?(on_state_key = ignore_key) () =
  {
    mode;
    sink =
      (match sink with
      | Some s -> s
      | None -> if record || trace_ops then Event.Sink.keep () else Event.Sink.drop);
    trace_ops;
    max_steps;
    stall_window = (match stall_window with Some w -> w | None -> max 1_000 (max_steps / 8));
    on_crash;
    on_op;
    por;
    crashy = footprint_crashy;
    on_key = on_state_key;
  }

(* An arena's options until its first run. *)
let no_opts = opts ()

type pick = Sched of Sched.t | Trace of { decisions : int array; key_at : int }

(* One engine, which is also an arena: [arena] constructs its subject into
   it once and [prepare] rewinds it in place for each run, so the runs of
   one explorer search share the store and every per-pid array, slot and
   buffer below.  The per-run configuration is mutable for the same
   reason. *)
type t = {
  n : int;
  mem : Memory.t;  (* sealed after [setup]: every run rewinds to that image *)
  lock_names : string Vec.t;  (* by lock id: the registry [setup] filled *)
  mutable crash : Crash.t;
  mutable abort : Abort.t;
  mutable has_abort : bool;  (* abort != Abort.none: gates all abort bookkeeping *)
  mutable abort_view : Abort.view;  (* oracles over this engine, built once *)
  mutable has_crash : bool;  (* crash != Crash.none: gates the per-step plan consults *)
  mutable o : opts;  (* the run's options *)
  mutable emit : bool;  (* [Event.Sink.wants o.sink], cached: gates event construction *)
  mutable consult_ops : bool;  (* fill [consult.info] per instruction and consult
                                  the plans/hooks; off on the fast path, where only
                                  the op counter advances *)
  mutable consult : consult;  (* [no_consult] until the first [consult_ops] run *)
  mutable track_ans : bool;  (* fold answer-stream digests (state keys) *)
  (* Running digest of each process's answer stream (dispatches, answers,
     crash discontinuations).  A process body is a deterministic function
     of this stream, so equal digests mean equal control state — the
     private half of {!state_key}. *)
  ans_hash : int array;
  body : pid:int -> unit;
  mutable handler : (unit, phase) Effect.Deep.handler;  (* [make_handler], once per engine *)
  phase : phase array;
  mutable cur : int;  (* the pid whose fiber runs: where the handler files its suspension *)
  ints : int slots;  (* the [phase] tag says which slots are live *)
  bools : bool slots;
  units : unit slots;
  mutable reg : Api.operands;  (* the running domain's operand register ({!Api.register}) *)
  pend : Api.operands array;  (* operands of each pid's pending instruction *)
  mutable step : int;
  op_index : int array;
  completed : int array;
  crashes : int array;
  last_progress : int array;  (* step of each pid's last satisfied request; -1 if none *)
  last_sched : int array;  (* step at which each pid last took a step; -1 if never *)
  crash_log : Crash.fired Vec.t;  (* every crash delivered, in delivery order *)
  folds : Folds.t;  (* what the run measures as it goes; the abort flag with them *)
  (* By cell id, nonzero while a process may be parked on the cell: set by
     [park], cleared by the wake-up that finds no waiter left and by
     [prepare].  Sized to the sealed store, grown when a process parks on
     a cell a run allocated. *)
  mutable parked : Bytes.t;
  (* Per-count scratch arrays for {!runnable}: [Sched.pick] implementations
     read [Array.length runnable], so each ready-set size needs an
     exact-length buffer.  Lazily allocated, reused across steps. *)
  ready_bufs : int array array;
  mutable ready : int array;  (* the ready set: [[||]] or one of [ready_bufs] *)
  (* [ready] may be out of date: set whenever a pid may have entered or
     left the ready set (it parked or halted, was woken, or crashed) and
     by [prepare]. *)
  mutable ready_stale : bool;
  (* A decision-vector run's output: the degree of every decision position
     in [degrees.(0 .. npos - 1)] and, under [o.por], the flat per-choice
     footprints in [footprints.(0 .. nfp - 1)].  Grown by doubling; the
     first such run sizes them. *)
  mutable degrees : int array;
  mutable npos : int;
  mutable footprints : Footprint.t array;
  mutable nfp : int;
  (* The run's pick, unpacked by [run_in], so that the step loop and its
     picks are top-level functions and a run builds no closure for them. *)
  mutable sched : Sched.t;
  mutable decisions : int array;
  mutable key_at : int;  (* the position whose state key [o.on_key] gets; -1 for none *)
  (* The last run's result parts that [finish] reuses while they still
     hold: each lock's stats, and the charged-kinds list. *)
  lock_stats : lock_stats array;
  mutable kinds : (Api.kind * int) list;
  mutable last_rmr : int;  (* RMR cost of the last [apply] (scratch) *)
  rmr_by_kind : int array;  (* indexed by a dense Api.kind code *)
  mutable total_rmr : int;
  mutable system_crashes : int;
  mutable deadlocked : bool;
  mutable timed_out : bool;
  rewinders : (unit -> unit) list;  (* [Ctx.on_rewind]'s, run before every run *)
}

(* Call sites guard with [eng.emit] *before* constructing the event, so a
   dropping sink costs neither the emit call nor the event allocation. *)
let record_event eng ev = Event.Sink.emit eng.o.sink ev

(* File the running pid's continuation, creating the slot array on the
   run's first capture of its type. *)
let file_k eng s k = if Array.length s.k = 0 then s.k <- Array.make eng.n k else s.k.(eng.cur) <- k

(* Skipped when the slot already holds [view], so a loop over one register
   instruction stores no view. *)
let file_view s pid view = if s.view.(pid) != view then s.view.(pid) <- view

(* The engine's effect handler, built once per arena by [arena].  [effc] files
   the suspension under [eng.cur]: the operands into [pend] (an
   argument-free instruction has none) and the view into the slots of its
   answer type, and hands the runtime one of three
   preallocated results, which files the continuation and returns the
   tag.  The view's answer type picks the slots, so no suspension
   allocates beyond the runtime continuation. *)
let make_handler eng : (unit, phase) Effect.Deep.handler =
  let on_int = Some (fun k -> file_k eng eng.ints k; Ready_int) in
  let on_bool = Some (fun k -> file_k eng eng.bools k; Ready_bool) in
  let on_unit = Some (fun k -> file_k eng eng.units k; Ready_unit) in
  {
    retc = (fun () -> Halted);
    exnc = (function Crashed -> Halted | e -> raise e);
    effc =
      (fun (type c) (eff : c Effect.t) : ((c, phase) Effect.Deep.continuation -> phase) option ->
        match eff with
        | Api.Instr view -> (
            let pid = eng.cur in
            match view with
            (* The argument-free instructions have no operands to copy. *)
            | Api.V_yield ->
                file_view eng.units pid view;
                on_unit
            | Api.V_get_step ->
                file_view eng.ints pid view;
                on_int
            | Api.V_get_done ->
                file_view eng.ints pid view;
                on_int
            | Api.V_poll_abort ->
                file_view eng.bools pid view;
                on_bool
            | _ -> (
                Api.load_operands view ~reg:eng.reg eng.pend.(pid);
                match answer_type view with
                | A_int ->
                    file_view eng.ints pid view;
                    on_int
                | A_bool ->
                    file_view eng.bools pid view;
                    on_bool
                | A_unit ->
                    file_view eng.units pid view;
                    on_unit))
        | _ -> None);
  }

let jpush eng header value =
  if eng.track_ans then begin
    let pid = header lsr 3 in
    eng.ans_hash.(pid) <- hmix (hmix eng.ans_hash.(pid) header) value
  end

(* The stream tag of a resolved instruction's answer. *)
let ans_tag : type a. a answer -> int = function
  | A_int -> jt_ans_int
  | A_bool -> jt_ans_bool
  | A_unit -> jt_ans_unit

(* The answer from its packed form (an int as is, a bool as 0 or 1, unit
   as 0), which is also what the answer stream folds. *)
let answer : type a. a answer -> int -> a =
 fun ans x -> match ans with A_int -> x | A_bool -> x <> 0 | A_unit -> ()

let kind_code : Api.kind -> int = function
  | Api.Read -> 0
  | Api.Write -> 1
  | Api.Cas -> 2
  | Api.Fas -> 3
  | Api.Faa -> 4
  | Api.Spin -> 5
  | Api.Note -> 6
  | Api.Nop -> 7

let kind_of_code = [| Api.Read; Api.Write; Api.Cas; Api.Fas; Api.Faa; Api.Spin; Api.Note; Api.Nop |]

(* [kind] is a required label: the optional-argument default would box
   dynamically-computed kinds in a [Some] per instruction. *)
let charge eng pid ~kind rmr =
  if rmr > 0 then begin
    eng.total_rmr <- eng.total_rmr + rmr;
    eng.rmr_by_kind.(kind_code kind) <- eng.rmr_by_kind.(kind_code kind) + rmr;
    Folds.charge eng.folds pid rmr ~abort:eng.has_abort
  end

(* Is [pid]'s spin (parked or woken) abortable?  Its view slot still holds
   the spin view: the fiber has not suspended since. *)
let abortable_spin eng pid =
  match eng.units.view.(pid) with
  | Api.V_spin_abortable_reg -> true
  | Api.V_spin_reg | Api.V_write _ | Api.V_write_reg | Api.V_write_close_unsafe_reg
  | Api.V_fas_persist_reg | Api.V_note_reg | Api.V_yield ->
      false

(* Deliver an abort signal.  Only a live process inside some lock's entry
   section is flagged; re-signalling a flagged victim is a no-op, so blind
   plans are harmless.  An abortable parked victim is woken so it can
   observe the flag. *)
let signal_abort eng ~origin pid =
  let a = eng.folds.aborts in
  if pid >= 0 && pid < eng.n && a.depth.(pid) > 0 && not a.flag.(pid) then begin
    match eng.phase.(pid) with
    | Halted -> ()
    | (Start | Ready_int | Ready_bool | Ready_unit | Parked | Woken) as ph ->
        Folds.Aborts.signal a pid ~step:eng.step ~origin;
        if eng.emit then
          record_event eng
            (Event.Note
               { step = eng.step; pid; super = eng.completed.(pid); note = Event.Abort_signal });
        (match ph with
        | Parked when abortable_spin eng pid ->
            eng.phase.(pid) <- Woken;
            eng.ready_stale <- true
        | Start | Ready_int | Ready_bool | Ready_unit | Parked | Woken | Halted -> ())
  end

let handle_note eng pid (n : Event.note) =
  if eng.emit then
    record_event eng (Event.Note { step = eng.step; pid; super = eng.completed.(pid); note = n });
  (match n with
  | Seg Req_done ->
      eng.completed.(pid) <- eng.completed.(pid) + 1;
      eng.last_progress.(pid) <- eng.step
  | _ -> ());
  Folds.note eng.folds pid n ~step:eng.step ~super:eng.completed.(pid) ~abort:eng.has_abort

(* Apply [pid]'s pending instruction, neither a spin nor argument-free,
   returning its packed answer (see [answer]) and leaving the RMR cost in
   [eng.last_rmr] — a tuple here would be one allocation per instruction.
   The operands come from [pid]'s [pend] slot, whatever the view.  Window
   bookkeeping happens here so that a crash injected after the instruction
   sees the correct unsafe state. *)
let apply : type a. t -> int -> a Api.view -> int =
 fun eng pid view ->
  let mem = eng.mem and o = eng.pend.(pid) in
  match view with
  | Api.V_read _ | Api.V_read_reg ->
      let v = Memory.read_u mem ~pid o.cell in
      eng.last_rmr <- Memory.last_cost mem;
      v
  | Api.V_write _ | Api.V_write_reg ->
      eng.last_rmr <- Memory.write mem ~pid o.cell o.arg;
      0
  | Api.V_cas_reg ->
      let ok = Memory.cas_u mem ~pid o.cell ~expect:o.arg ~value:o.arg2 in
      eng.last_rmr <- Memory.last_cost mem;
      Bool.to_int ok
  | Api.V_fas_reg ->
      let old = Memory.fas_u mem ~pid o.cell o.arg in
      eng.last_rmr <- Memory.last_cost mem;
      old
  | Api.V_fas_open_unsafe_reg ->
      let old = Memory.fas_u mem ~pid o.cell o.arg in
      eng.last_rmr <- Memory.last_cost mem;
      Folds.Occupancy.open_unsafe eng.folds.occupancy pid o.arg2;
      old
  | Api.V_write_close_unsafe_reg ->
      eng.last_rmr <- Memory.write mem ~pid o.cell o.arg;
      Folds.Occupancy.close_unsafe eng.folds.occupancy pid o.arg2;
      0
  | Api.V_fas_persist_reg ->
      let old = Memory.fas_u mem ~pid o.cell o.arg in
      let m1 = Memory.last_cost mem in
      eng.last_rmr <- m1 + Memory.write mem ~pid o.dst old;
      0
  | Api.V_faa_reg ->
      let old = Memory.faa_u mem ~pid o.cell o.arg in
      eng.last_rmr <- Memory.last_cost mem;
      old
  | Api.V_note_reg ->
      eng.last_rmr <- 0;
      handle_note eng pid o.note;
      0
  | Api.V_get_done | Api.V_get_step | Api.V_poll_abort | Api.V_yield | Api.V_spin_reg
  | Api.V_spin_abortable_reg ->
      assert false (* handled by [exec] *)

(* A parked pid waits on its [pend] slot's [cell] for its [cond]. *)
let wake_parked eng (c : Cell.t) =
  let id = c.Cell.id in
  if id < Bytes.length eng.parked && Bytes.get eng.parked id <> '\000' then begin
    let still_parked = ref false in
    for pid = 0 to eng.n - 1 do
      match eng.phase.(pid) with
      | Parked ->
          let o = eng.pend.(pid) in
          if Cell.equal o.cell c then
            if Api.cond_holds o.cond (Memory.peek eng.mem c) then begin
              eng.phase.(pid) <- Woken;
              eng.ready_stale <- true
            end
            else still_parked := true
      | Start | Ready_int | Ready_bool | Ready_unit | Woken | Halted -> ()
    done;
    if not !still_parked then Bytes.set eng.parked id '\000'
  end

(* Does [view] name a cell?  Every instruction but notes and the
   argument-free ones does; its cell is the [pend] slot's [cell]. *)
let has_cell view =
  match Api.kind_of_view view with
  | Api.Note | Api.Nop -> false
  | Api.Read | Api.Write | Api.Cas | Api.Fas | Api.Faa | Api.Spin -> true

(* Wake waiters after a mutating instruction.  [V_fas_persist_reg] wakes on its
   primary cell only. *)
let wake_after eng pid (kind : Api.kind) =
  match kind with
  | Api.Write | Api.Cas | Api.Fas | Api.Faa -> wake_parked eng eng.pend.(pid).cell
  | Api.Read | Api.Spin | Api.Note | Api.Nop -> ()

(* Record an *applied* instruction together with the cell contents after it
   (for reads, the value read) — the data the replay checker feeds on. *)
let record_op : type a. t -> int -> a Api.view -> unit =
 fun eng pid view ->
  if eng.o.trace_ops then begin
    let o = eng.pend.(pid) in
    let emit ~kind (cell : Cell.t option) =
      record_event eng
        (Event.Op
           {
             step = eng.step;
             pid;
             kind;
             cell = (match cell with Some c -> c.Cell.name | None -> "-");
             value = (match cell with Some c -> Memory.peek eng.mem c | None -> 0);
           })
    in
    emit
      ~kind:(Fmt.str "%a" Api.pp_kind (Api.kind_of_view view))
      (if has_cell view then Some o.cell else None);
    (* fas_persist atomically touches a second cell; give it its own trace
       entry so replay sees every mutation. *)
    match view with
    | Api.V_fas_persist_reg -> emit ~kind:"write" (Some o.dst)
    | _ -> ()
  end

(* Discontinue [pid]'s suspended fiber with [Crashed]; it must unwind to
   the handler's [exnc]. *)
let discontinue (type a) eng pid (k : (a, phase) Effect.Deep.continuation) =
  eng.cur <- pid;
  match Effect.Deep.discontinue k Crashed with
  | Halted -> ()
  | Start | Ready_int | Ready_bool | Ready_unit | Parked | Woken ->
      (* The body swallowed [Crashed] and kept computing: forbidden. *)
      failwith "Engine: process body must not catch the crash exception"

(* Crash [pid], discarding whatever fiber its slots hold.  [exec] calls
   this while the tag is still the [Ready_*] being executed. *)
let do_crash eng pid =
  if eng.emit then
    record_event eng
      (Event.Crash
         {
           step = eng.step;
           pid;
           super = eng.completed.(pid);
           unsafe_wrt = eng.folds.occupancy.unsafe_open.(pid);
           holding = eng.folds.occupancy.holding.(pid);
           in_passage = eng.folds.passages.in_passage.(pid);
         });
  eng.crashes.(pid) <- eng.crashes.(pid) + 1;
  Folds.crash eng.folds pid ~step:eng.step ~abort:eng.has_abort;
  Memory.forget eng.mem ~pid;
  (match eng.phase.(pid) with
  | Ready_int ->
      jpush eng (jt_crash lor (pid lsl 3)) 0;
      discontinue eng pid eng.ints.k.(pid)
  | Ready_bool ->
      jpush eng (jt_crash lor (pid lsl 3)) 0;
      discontinue eng pid eng.bools.k.(pid)
  | Ready_unit | Parked | Woken ->
      jpush eng (jt_crash lor (pid lsl 3)) 0;
      discontinue eng pid eng.units.k.(pid)
  | Start | Halted -> () (* no live fiber — nothing for a replay to discontinue *));
  eng.phase.(pid) <- Start;
  eng.ready_stale <- true;
  eng.o.on_crash ~pid ~step:eng.step

let crash_now eng pid =
  match eng.phase.(pid) with
  | Halted -> ()
  | Start | Ready_int | Ready_bool | Ready_unit | Parked | Woken -> do_crash eng pid

(* Log a delivered crash; [op_index] is -1 for an asynchronous or a
   system-wide one. *)
let log_crash eng ~pid ~op_index point =
  Vec.push eng.crash_log
    {
      Crash.f_pid = pid;
      f_op_index = op_index;
      f_step = eng.step;
      f_point = point;
      f_async = op_index < 0;
    }

(* An asynchronous crash the plan aimed at [pid], logged only if delivered:
   a halted pid has nothing left to crash, and a pid outside the run (a
   batch larger than [n]) is no process at all. *)
let async_crash eng pid =
  if pid >= 0 && pid < eng.n then
    match eng.phase.(pid) with
    | Halted -> ()
    | Start | Ready_int | Ready_bool | Ready_unit | Parked | Woken ->
        log_crash eng ~pid ~op_index:(-1) Before;
        do_crash eng pid

(* A system-wide crash (the JJJ model): every process's continuation —
   running, ready, and parked alike — is erased at this instant; NVRAM
   persists and every live body restarts through its recovery section.
   Processes that already satisfied all their requests stay [Halted].  It
   is logged once, not per pid. *)
let system_crash_now eng =
  if eng.emit then record_event eng (Event.Sys_crash { step = eng.step });
  eng.system_crashes <- eng.system_crashes + 1;
  log_crash eng ~pid:(-1) ~op_index:(-1) Before;
  for pid = 0 to eng.n - 1 do
    crash_now eng pid
  done

(* [Some cell.name], boxed on [cell]'s first consult and again only when
   its id names another cell: a cell a run allocates (a lazily built node)
   may take the id of another run's.  Such cells grow the table. *)
let cell_name c (cell : Cell.t) =
  let id = cell.Cell.id in
  if id >= Array.length c.cell_names then begin
    let grown = Array.make (max (id + 1) (2 * Array.length c.cell_names)) None in
    Array.blit c.cell_names 0 grown 0 (Array.length c.cell_names);
    c.cell_names <- grown
  end;
  match c.cell_names.(id) with
  | Some name as boxed when name == cell.Cell.name -> boxed
  | Some _ | None ->
      let boxed = Some cell.Cell.name in
      c.cell_names.(id) <- boxed;
      boxed

(* The kept box of [note] among [boxes.(i .. len - 1)], or [None]. *)
let rec kept_note_box boxes note i len =
  if i >= len then None
  else
    match boxes.(i) with
    | Some n as boxed when n == note -> boxed
    | Some _ | None -> kept_note_box boxes note (i + 1) len

(* [Some note], reusing the kept box of a payload physically the same,
   which every constant payload and every note a lock builds once is. *)
let note_box c note =
  match kept_note_box c.note_boxes note 0 c.notes with
  | Some _ as boxed -> boxed
  | None ->
      let boxed = Some note in
      c.note_boxes.(c.next) <- boxed;
      c.next <- (c.next + 1) mod note_cap;
      if c.notes < note_cap then c.notes <- c.notes + 1;
      boxed

(* Refill the run's one [op_info] for [pid]'s pending instruction. *)
let op_info : type a. t -> int -> a Api.view -> Crash.op_info =
 fun eng pid view ->
  let o = eng.pend.(pid) in
  let info = eng.consult.info in
  info.pid <- pid;
  info.step <- eng.step;
  info.op_index <- eng.op_index.(pid);
  info.kind <- Api.kind_of_view view;
  info.cell <- (if has_cell view then cell_name eng.consult o.cell else None);
  info.note <- (match view with Api.V_note_reg -> note_box eng.consult o.note | _ -> None);
  info.unsafe_wrt <- eng.folds.occupancy.unsafe_open.(pid);
  eng.op_index.(pid) <- eng.op_index.(pid) + 1;
  eng.o.on_op info;
  info

(* Park [pid] on its spin: the continuation stays in its unit slot and the
   spin's cell and condition in its [pend] slot. *)
let park eng pid =
  eng.phase.(pid) <- Parked;
  let id = eng.pend.(pid).cell.Cell.id in
  if id >= Bytes.length eng.parked then begin
    let grown = Bytes.make (max (id + 1) (2 * Bytes.length eng.parked)) '\000' in
    Bytes.blit eng.parked 0 grown 0 (Bytes.length eng.parked);
    eng.parked <- grown
  end;
  Bytes.set eng.parked id '\001'

(* Execute [pid]'s pending spin: resume [k] if the condition holds (or an
   abortable spin carries an abort signal), park it otherwise. *)
let spin eng pid view (k : (unit, phase) Effect.Deep.continuation) ~crash_after ~abortable =
  let o = eng.pend.(pid) in
  let v = Memory.read_u eng.mem ~pid o.cell in
  charge eng pid ~kind:Api.Spin (Memory.last_cost eng.mem);
  record_op eng pid view;
  if crash_after then do_crash eng pid
  else if Api.cond_holds o.cond v || (abortable && eng.folds.aborts.flag.(pid)) then begin
    jpush eng (jt_ans_unit lor (pid lsl 3)) 0;
    eng.phase.(pid) <- Effect.Deep.continue k ()
  end
  else park eng pid

(* Resolve [pid]'s executed instruction: crash it after the instruction,
   or resume [k] with the packed answer [res]. *)
let resolve : type a.
    t -> int -> a answer -> (a, phase) Effect.Deep.continuation -> crash_after:bool -> int -> unit =
 fun eng pid ans k ~crash_after res ->
  if crash_after then do_crash eng pid
  else begin
    jpush eng (ans_tag ans lor (pid lsl 3)) res;
    eng.phase.(pid) <- Effect.Deep.continue k (answer ans res)
  end

(* An argument-free instruction touches no memory, costs no RMR and wakes
   nobody: its answer [res] is engine state, and it is traced and
   resolved like any other. *)
let answer_nop eng pid ans view k ~crash_after res =
  if eng.o.trace_ops then record_op eng pid view;
  resolve eng pid ans k ~crash_after res

(* Execute [pid]'s pending instruction [view], resuming [k] (its slot's
   continuation, whose answer type [ans] names) with its answer.  The
   plans are consulted first, whatever the instruction; then one dispatch
   on the view picks its class: a spin, an argument-free instruction, or
   one applied to memory.  The tag still says [Ready_*], so a crash
   discontinues [k]; the fiber's next suspension overwrites the slots and
   the [pend] operands. *)
let exec : type a. t -> int -> a answer -> a Api.view -> (a, phase) Effect.Deep.continuation -> unit
    =
 fun eng pid ans view k ->
  let decision =
    if eng.consult_ops then begin
      let info = op_info eng pid view in
      (* The abort consult precedes the crash consult, so a signal fired
         on an op the crash plan then suppresses still counts as
         delivered. *)
      if eng.has_abort && Abort.on_op eng.abort info then
        signal_abort eng ~origin:info.Crash.op_index pid;
      let decision = Crash.on_op eng.crash info in
      (match decision with
      | Crash point -> log_crash eng ~pid ~op_index:info.op_index point
      | No_crash -> ());
      decision
    end
    else begin
      (* Fast path: no plan and no hook reads the [op_info], so only the
         per-process op counter (part of the state key) advances. *)
      eng.op_index.(pid) <- eng.op_index.(pid) + 1;
      Crash.No_crash
    end
  in
  match decision with
  | Crash Before -> do_crash eng pid
  | (No_crash | Crash After) as decision -> (
      let crash_after =
        match decision with Crash.Crash _ -> true | Crash.No_crash -> false
      in
      match view with
      | Api.V_spin_reg -> spin eng pid view k ~crash_after ~abortable:false
      | Api.V_spin_abortable_reg -> spin eng pid view k ~crash_after ~abortable:true
      | Api.V_yield -> answer_nop eng pid ans view k ~crash_after 0
      | Api.V_get_step -> answer_nop eng pid ans view k ~crash_after eng.step
      | Api.V_get_done -> answer_nop eng pid ans view k ~crash_after eng.completed.(pid)
      | Api.V_poll_abort ->
          answer_nop eng pid ans view k ~crash_after (Bool.to_int eng.folds.aborts.flag.(pid))
      | _ ->
          let res = apply eng pid view in
          let kind = Api.kind_of_view view in
          charge eng pid ~kind eng.last_rmr;
          if eng.o.trace_ops then record_op eng pid view;
          wake_after eng pid kind;
          resolve eng pid ans k ~crash_after res)

(* Step [pid].  Whatever resumes its fiber stores the tag the fiber comes
   back with: the handler has already filed a suspension in [pid]'s
   slots. *)
let step_process eng handler pid =
  if eng.has_abort then Folds.Aborts.step eng.folds.aborts pid;
  eng.cur <- pid;
  match eng.phase.(pid) with
  | Start ->
      let body = eng.body in
      jpush eng (jt_dispatch lor (pid lsl 3)) 0;
      eng.phase.(pid) <- Effect.Deep.match_with (fun () -> body ~pid) () handler
  | Ready_int -> exec eng pid A_int eng.ints.view.(pid) eng.ints.k.(pid)
  | Ready_bool -> exec eng pid A_bool eng.bools.view.(pid) eng.bools.k.(pid)
  | Ready_unit -> exec eng pid A_unit eng.units.view.(pid) eng.units.k.(pid)
  | Woken ->
      spin eng pid eng.units.view.(pid) eng.units.k.(pid) ~crash_after:false
        ~abortable:(abortable_spin eng pid)
  | Parked | Halted -> assert false

(* The access footprint of the step [pid] would take if scheduled now, for
   the explorer's partial-order reduction.  A [Start] dispatch only runs the
   body to its first suspension (pure local computation) and a [Woken]
   dispatch only re-reads the spin cell; neither consults the crash plan
   (no [op_info]), so neither is crashy whatever the plan. *)
let pending_footprint eng ~crashy pid =
  let o = eng.pend.(pid) in
  match eng.phase.(pid) with
  | Start -> Footprint.local ~pid
  | Ready_int -> Footprint.of_pending ~pid ~crashy:(crashy pid) eng.ints.view.(pid) o
  | Ready_bool -> Footprint.of_pending ~pid ~crashy:(crashy pid) eng.bools.view.(pid) o
  | Ready_unit -> Footprint.of_pending ~pid ~crashy:(crashy pid) eng.units.view.(pid) o
  | Woken -> Footprint.waiting ~pid o.cell
  | Parked | Halted -> assert false

(* The state key behind the explorer's decision-node deduplication: a
   compact int-array digest of everything that determines both the future
   of the run (store contents and versions, cache validity, per-process
   control state, the crash plan's observable cursor) and everything a
   schedule-robust check can already observe about the prefix (completion,
   crash and RMR aggregates, per-passage (super, rmr, completed) folds,
   occupancy and CS maxima).  Two decision nodes with equal keys have
   pointwise-identical continuations: every schedule from one has a twin
   from the other with an equal end-of-run [result] as far as
   schedule-robust checks go.  Deliberately excluded — matching the POR
   contract that checks must not read them — are step counts, latencies,
   [last_progress]/[last_sched] and the stall classification.

   Control state rests on [ans_hash]: bodies are deterministic functions
   of their answer stream, so the digest pins the pending instruction
   (including a parked process's spin cell); the explicit tag settles
   ready/parked/woken, which engine bookkeeping decides outside the
   stream.  A schedule-robust ([Crash.por_class] = [Robust]) plan's
   internal cursor is likewise a function of the per-process op streams,
   which the digests determine.

   The folds run as plain loops over unboxed accumulators: an iterator's
   closure over a [ref] would box it, and the key is built once per
   explorer node. *)
let state_key eng =
  let n = eng.n and f = eng.folds in
  let nlocks = Array.length f.occupancy.occupancy in
  let key = Array.make ((3 * n) + nlocks + 4) 0 in
  key.(0) <- Memory.fingerprint eng.mem;
  for p = 0 to n - 1 do
    key.(1 + p) <- eng.ans_hash.(p);
    let tag =
      match eng.phase.(p) with
      | Start -> 0
      | Ready_int | Ready_bool | Ready_unit -> 1
      | Parked -> 2
      | Woken -> 3
      | Halted -> 4
    in
    key.(1 + n + p) <- tag lor (eng.op_index.(p) lsl 3);
    key.(1 + (2 * n) + p) <- Folds.key_proc f p (hmix (hmix 0 eng.completed.(p)) eng.crashes.(p))
  done;
  for l = 0 to nlocks - 1 do
    key.(1 + (3 * n) + l) <- Folds.Occupancy.key_lock f.occupancy l
  done;
  let h = ref (hmix 0 eng.total_rmr) in
  for k = 0 to Array.length eng.rmr_by_kind - 1 do
    h := hmix !h eng.rmr_by_kind.(k)
  done;
  key.((3 * n) + nlocks + 1) <- Folds.Aborts.key_stats f.aborts (hmix !h eng.system_crashes);
  key.((3 * n) + nlocks + 2) <- f.app_cs.count;
  key.((3 * n) + nlocks + 3) <- f.app_cs.max;
  key

(* Build the ready set (ascending pids) into a per-count scratch buffer.
   The ascending order is a contract: {!Sched.recording}, {!Sched.trace}
   and [trace_pick] index into it directly.  Scratch arrays must be
   exactly [count] long because [Sched.pick] reads [Array.length
   runnable]. *)
let scan_ready eng =
  let count = ref 0 in
  for pid = 0 to eng.n - 1 do
    match eng.phase.(pid) with
    | Start | Ready_int | Ready_bool | Ready_unit | Woken -> incr count
    | Parked | Halted -> ()
  done;
  let c = !count in
  if c = 0 then [||]
  else begin
    let buf =
      let b = eng.ready_bufs.(c) in
      if Array.length b = c then b
      else begin
        let b = Array.make c 0 in
        eng.ready_bufs.(c) <- b;
        b
      end
    in
    let i = ref 0 in
    for pid = 0 to eng.n - 1 do
      match eng.phase.(pid) with
      | Start | Ready_int | Ready_bool | Ready_unit | Woken ->
          Array.unsafe_set buf !i pid;
          incr i
      | Parked | Halted -> ()
    done;
    buf
  end

(* The ready set, scanned again only when [ready_stale] says it may have
   changed: most steps leave every pid as runnable as it was, and two
   scans a step cost about 13 of the 95 ns an argument-free step took at
   n = 8 (docs/PERFORMANCE.md).  The result is valid until the next
   [runnable] call on this engine, and callers (the run loops, the
   schedulers) must not modify it: while the set holds, every step is
   handed the same array. *)
let runnable eng =
  if eng.ready_stale then begin
    eng.ready_stale <- false;
    eng.ready <- scan_ready eng
  end;
  eng.ready

(* Where is [pid] right now, for the watchdog's culprit report. *)
let segment eng pid =
  let holding = eng.folds.occupancy.holding.(pid) in
  let base =
    if eng.folds.app_cs.in_cs.(pid) then "cs"
    else if not eng.folds.passages.in_passage.(pid) then "ncs"
    else if holding <> [] then
      Printf.sprintf "holding(%s)"
        (String.concat "," (List.map (fun id -> Vec.get eng.lock_names id) holding))
    else "entry"
  in
  match eng.phase.(pid) with
  | Parked -> Printf.sprintf "%s parked@%s" base eng.pend.(pid).cell.Cell.name
  | Start | Ready_int | Ready_bool | Ready_unit | Woken | Halted -> base

(* Diagnose an abnormal end state.  Deadlock is structural (every live
   process parked).  On timeout, progress within the trailing
   [stall_window] steps separates the verdicts: some processes progressed
   while others did not — starvation, blame the left-behind; nobody
   progressed but processes are still being scheduled — livelock; everyone
   progressed recently — the run was healthy and simply ran out of step
   budget. *)
let classify_stall eng =
  if not (eng.deadlocked || eng.timed_out) then None
  else begin
    let live = ref [] in
    for pid = eng.n - 1 downto 0 do
      match eng.phase.(pid) with
      | Halted -> ()
      | Start | Ready_int | Ready_bool | Ready_unit | Woken | Parked -> live := pid :: !live
    done;
    let live = !live in
    let report kind pids =
      Some { stall_kind = kind; culprits = List.map (fun p -> (p, segment eng p)) pids }
    in
    if eng.deadlocked then report Deadlock live
    else begin
      let horizon = eng.step - eng.o.stall_window in
      let progressed p = eng.last_progress.(p) >= horizon in
      let starved = List.filter (fun p -> not (progressed p)) live in
      if starved = [] then report Underbudget live
      else if List.exists progressed live then report Starvation starved
      else begin
        (* Nobody progressed: livelock.  Blame the processes still burning
           steps; if even scheduling stopped reaching them, blame all live. *)
        let spinning = List.filter (fun p -> eng.last_sched.(p) >= horizon) live in
        report Livelock (if spinning = [] then live else spinning)
      end
    end
  end

(* The kinds that cost RMRs, in kind-code order. *)
let charged_kinds eng =
  let rec from i acc =
    if i < 0 then acc
    else
      let v = eng.rmr_by_kind.(i) in
      from (i - 1) (if v > 0 then (kind_of_code.(i), v) :: acc else acc)
  in
  from (Array.length eng.rmr_by_kind - 1) []

(* [l] is the charged-kinds list of the counters, from code [i] on. *)
let rec kinds_hold eng i l =
  if i >= Array.length eng.rmr_by_kind then l = []
  else
    let v = eng.rmr_by_kind.(i) in
    if v = 0 then kinds_hold eng (i + 1) l
    else
      match l with
      | (k, v') :: rest -> kind_code k = i && v' = v && kinds_hold eng (i + 1) rest
      | [] -> false

let proc_stats eng pid =
  let ps = eng.folds.passages in
  {
    passages = Vec.to_list ps.closed.(pid);
    crashes = eng.crashes.(pid);
    completed = eng.completed.(pid);
    max_level = ps.level_max.(pid);
  }

(* Lock [id]'s stats, the last run's record when they are the same. *)
let lock_stats eng id =
  let s = eng.lock_stats.(id) and o = eng.folds.occupancy in
  if s.max_occupancy = o.occupancy_max.(id) && s.unsafe_crashes = o.unsafe_crashes.(id) then s
  else begin
    let s =
      {
        lock_name = Vec.get eng.lock_names id;
        max_occupancy = o.occupancy_max.(id);
        unsafe_crashes = o.unsafe_crashes.(id);
      }
    in
    eng.lock_stats.(id) <- s;
    s
  end

(* The run's result.  Its records are immutable, so the parts that equal
   the last run's ([lock_stats], [kinds]) are that run's values, shared,
   and the arrays are filled by loops rather than [Array.init] closures. *)
let finish eng =
  let n = eng.n and nlocks = Array.length eng.lock_stats in
  let procs = if n = 0 then [||] else Array.make n (proc_stats eng 0) in
  for pid = 1 to n - 1 do
    procs.(pid) <- proc_stats eng pid
  done;
  let locks = if nlocks = 0 then [||] else Array.make nlocks (lock_stats eng 0) in
  for id = 1 to nlocks - 1 do
    locks.(id) <- lock_stats eng id
  done;
  if not (kinds_hold eng 0 eng.kinds) then eng.kinds <- charged_kinds eng;
  {
    steps = eng.step;
    total_rmr = eng.total_rmr;
    rmr_by_kind = eng.kinds;
    total_crashes = Array.fold_left ( + ) 0 eng.crashes;
    system_crashes = eng.system_crashes;
    procs;
    locks;
    cs_max = eng.folds.app_cs.max;
    deadlocked = eng.deadlocked;
    timed_out = eng.timed_out;
    stall = classify_stall eng;
    aborts = Folds.Aborts.facts eng.folds.aborts;
    crash_log = Vec.to_list eng.crash_log;
    monitors = Folds.monitors eng.folds;
    events = Event.Sink.events eng.o.sink;
  }

(* The oracles an abort plan's async decisions read, closed over the
   engine.  Built on the engine's first run with an abort plan. *)
let make_abort_view eng =
  let a = eng.folds.aborts in
  {
    Abort.n = eng.n;
    waiting = (fun pid -> if a.since.(pid) < 0 then -1 else eng.step - a.since.(pid));
    streak = (fun pid -> a.streak.(pid));
  }

(* Placeholders until [make_abort_view] and [make_handler] replace them;
   neither is ever used. *)
let no_abort_view = Abort.blind_view ~n:0

let no_handler : (unit, phase) Effect.Deep.handler =
  { retc = (fun () -> Halted); exnc = raise; effc = (fun _ -> None) }

let no_sched = Sched.make ~label:"none" (fun ~runnable ~step:_ -> runnable.(0))

(* Matches no lock's stats, so a lock's first [finish] builds its record. *)
let no_lock_stats = { lock_name = ""; max_occupancy = -1; unsafe_crashes = -1 }

(* Domain-safety audit (plans and seeds sharded over domains): an engine
   serves one run at a time.  [run] constructs a fresh one per call, and
   [run_in] uses its caller's arena, which one search or one domain's
   Chaos slot owns.  Every piece of mutable state below —
   the store, the engine record, the continuation and view slots, the
   per-process arrays, the folds, the effect handler with its preallocated
   results — belongs to one engine: [arena] allocates it and [prepare]
   resets it.  The module has no top-level mutable bindings (and the same
   holds for Memory, Cell, Crash, Folds and Vec).  The one shared piece is {!Api.register},
   which is per domain: [prepare] takes the running domain's, the run's
   fibers fill it in that same domain, and the handler empties it into
   [pend] before another fiber runs.  Concurrent runs on different engines in different domains
   therefore share nothing, *provided* the caller's options, pick, [crash],
   [setup] and [body] arguments are themselves domain-safe: a stateful
   scheduler or crash plan must be built fresh per run, and the closures
   must not capture shared mutable state. *)
let arena ~n ~model ~setup ~body =
  let mem = Memory.create model ~n in
  let ctx = { Ctx.mem; lock_names = Vec.create (); rewinders = [] } in
  let shared = setup ctx in
  Memory.seal mem;
  let nlocks = Vec.length ctx.lock_names in
  let eng =
    {
      n;
      mem;
      lock_names = ctx.lock_names;
      crash = Crash.none;
      abort = Abort.none;
      has_abort = false;
      abort_view = no_abort_view;
      has_crash = false;
      o = no_opts;
      emit = false;
      consult_ops = false;
      consult = no_consult;
      track_ans = false;
      ans_hash = Array.make n 0;
      body = (fun ~pid -> body shared ~pid);
      handler = no_handler;
      phase = Array.make n Start;
      cur = 0;
      ints = { k = [||]; view = Array.make n Api.V_read_reg };
      bools = { k = [||]; view = Array.make n Api.V_cas_reg };
      units = { k = [||]; view = Array.make n Api.V_yield };
      reg = Api.register ();
      pend = Array.init n (fun _ -> Api.make_operands ());
      step = 0;
      op_index = Array.make n 0;
      completed = Array.make n 0;
      crashes = Array.make n 0;
      last_progress = Array.make n (-1);
      last_sched = Array.make n (-1);
      crash_log = Vec.create ();
      folds = Folds.create ~n ~nlocks;
      parked = Bytes.make (Memory.cell_count mem) '\000';
      ready_bufs = Array.make (n + 1) [||];
      ready = [||];
      ready_stale = true;
      degrees = [||];
      npos = 0;
      footprints = [||];
      nfp = 0;
      sched = no_sched;
      decisions = [||];
      key_at = -1;
      lock_stats = Array.make nlocks no_lock_stats;
      kinds = [];
      last_rmr = 0;
      rmr_by_kind = Array.make 8 0;
      total_rmr = 0;
      system_crashes = 0;
      deadlocked = false;
      timed_out = false;
      rewinders = ctx.rewinders;
    }
  in
  eng.handler <- make_handler eng;
  eng

(* Reset [eng] in place for a run under the options [o], the plans and
   the state-key position [key_at] (-1: none): rewind the store and the
   registered host state to the image [arena] sealed, empty the sink, and
   derive the per-feature instrumentation guards from [o.mode].  [`Auto]
   runs each bookkeeping layer only when the run needs it; [`Full] forces
   them on (for differential benchmarking: results are identical either
   way); [`Fast] asserts that nothing needs them.  What a run leaves
   behind (suspended continuations, stale views and operands) stays in
   the slots, unread: every slot read is guarded by a [phase] tag this
   run set. *)
let prepare eng o ~crash ~abort ~key_at =
  let n = eng.n in
  let has_crash = crash != Crash.none and has_abort = abort != Abort.none in
  (match o.mode with
  | `Auto ->
      eng.consult_ops <- has_crash || has_abort || o.on_op != default_on_op;
      eng.track_ans <- key_at >= 0
  | `Full ->
      eng.consult_ops <- true;
      eng.track_ans <- true
  | `Fast ->
      if
        has_crash || has_abort || Event.Sink.wants o.sink || o.trace_ops
        || o.on_op != default_on_op || o.on_crash != default_on_crash || o.por || key_at >= 0
      then
        invalid_arg
          "Engine.run_in: ~mode:`Fast requires a crash-free, abort-free, uninstrumented \
           configuration (no sink, hooks, footprints or state key)";
      eng.consult_ops <- false;
      eng.track_ans <- false);
  Memory.rewind eng.mem;
  List.iter (fun rewind -> rewind ()) eng.rewinders;
  Folds.reset eng.folds;
  eng.crash <- crash;
  eng.abort <- abort;
  eng.has_crash <- has_crash;
  eng.has_abort <- has_abort;
  if has_abort && eng.abort_view == no_abort_view then eng.abort_view <- make_abort_view eng;
  eng.o <- o;
  Event.Sink.clear o.sink;
  eng.emit <- Event.Sink.wants o.sink;
  if eng.consult_ops && eng.consult == no_consult then
    eng.consult <-
      {
        info = fresh_info ();
        cell_names = Array.make (Memory.cell_count eng.mem) None;
        note_boxes = Array.make note_cap None;
        notes = 0;
        next = 0;
      };
  eng.key_at <- key_at;
  eng.reg <- Api.register ();
  Array.fill eng.ans_hash 0 n 0;
  Array.fill eng.phase 0 n Start;
  eng.ready_stale <- true;
  eng.cur <- 0;
  eng.step <- 0;
  Array.fill eng.op_index 0 n 0;
  Array.fill eng.completed 0 n 0;
  Array.fill eng.crashes 0 n 0;
  Array.fill eng.last_progress 0 n (-1);
  Array.fill eng.last_sched 0 n (-1);
  Vec.clear eng.crash_log;
  Bytes.fill eng.parked 0 (Bytes.length eng.parked) '\000';
  eng.npos <- 0;
  eng.nfp <- 0;
  eng.last_rmr <- 0;
  Array.fill eng.rmr_by_kind 0 (Array.length eng.rmr_by_kind) 0;
  eng.total_rmr <- 0;
  eng.system_crashes <- 0;
  eng.deadlocked <- false;
  eng.timed_out <- false

let rec async_crashes eng = function
  | [] -> ()
  | pid :: rest ->
      async_crash eng pid;
      async_crashes eng rest

let rec async_aborts eng = function
  | [] -> ()
  | pid :: rest ->
      signal_abort eng ~origin:(-1) pid;
      async_aborts eng rest

(* The step loop of every run.  Each iteration fires the asynchronous
   crash, system-crash and abort decisions, builds the ready set, and steps
   the pid [pick eng pos ready] names, [pos] being the decision position.
   [pick] is one of the top-level picks below, which read their inputs from
   the engine, so a run allocates no closure here.  Only the stepped pid
   can park or halt in its step; the wake-ups, crashes and abort signals
   that move other pids mark the ready set stale where they happen. *)
let rec drive eng ~pick pos =
  if eng.has_crash then begin
    async_crashes eng (Crash.async eng.crash ~step:eng.step);
    if Crash.system eng.crash ~step:eng.step then system_crash_now eng
  end;
  if eng.has_abort then async_aborts eng (Abort.async eng.abort ~step:eng.step eng.abort_view);
  let ready = runnable eng in
  if Array.length ready = 0 then begin
    let any_parked =
      Array.exists
        (function
          | Parked -> true
          | Start | Ready_int | Ready_bool | Ready_unit | Woken | Halted -> false)
        eng.phase
    in
    if any_parked then eng.deadlocked <- true
    (* else: all halted — normal termination *)
  end
  else if eng.step >= eng.o.max_steps then eng.timed_out <- true
  else begin
    let pid = pick eng pos ready in
    eng.last_sched.(pid) <- eng.step;
    step_process eng eng.handler pid;
    (match eng.phase.(pid) with
    | Parked | Halted -> eng.ready_stale <- true
    | Start | Ready_int | Ready_bool | Ready_unit | Woken -> ());
    eng.step <- eng.step + 1;
    drive eng ~pick (pos + 1)
  end

let sched_pick eng _ ready = Sched.pick eng.sched ~runnable:ready ~step:eng.step

(* [a] at least [len] long, keeping its contents. *)
let grow a ~len filler =
  let b = Array.make (max len (2 * Array.length a)) filler in
  Array.blit a 0 b 0 (Array.length a);
  b

(* The decision-vector pick: [runnable] builds the ready set in ascending
   pid order and {!Sched.trace} indexes it the same way, so this replays
   the schedules a {!Sched.trace} pick does.  Footprints are stored one
   per runnable pid in that same order, so the explorer can index them by
   decision position and choice. *)
let trace_pick eng pos ready =
  let degree = Array.length ready in
  if eng.o.por then begin
    if eng.nfp + degree > Array.length eng.footprints then
      eng.footprints <- grow eng.footprints ~len:(eng.nfp + degree) (Footprint.local ~pid:0);
    for i = 0 to degree - 1 do
      eng.footprints.(eng.nfp + i) <- pending_footprint eng ~crashy:eng.o.crashy ready.(i)
    done;
    eng.nfp <- eng.nfp + degree
  end;
  if pos = eng.key_at then eng.o.on_key (state_key eng);
  if pos = Array.length eng.degrees then eng.degrees <- grow eng.degrees ~len:(pos + 1) 0;
  eng.degrees.(pos) <- degree;
  eng.npos <- pos + 1;
  let choice = if pos < Array.length eng.decisions then eng.decisions.(pos) else 0 in
  ready.(if choice >= 0 && choice < degree then choice else ((choice mod degree) + degree) mod degree)

type arena = t

let run_in o ~arena:eng ~crash ~abort pick =
  (match pick with
  | Sched sched ->
      prepare eng o ~crash ~abort ~key_at:(-1);
      eng.sched <- sched;
      drive eng ~pick:sched_pick 0
  | Trace { decisions; key_at } ->
      let n = eng.n in
      if o.por && n > 0xffff then
        invalid_arg "Engine.run_in: footprint recording supports at most 65536 processes";
      prepare eng o ~crash ~abort ~key_at;
      (* Sized at a length the run already knows: a replay runs about as
         many steps as it has decisions, and a short default schedule fits
         in 128. *)
      let cap = max 128 (Array.length decisions) in
      if Array.length eng.degrees < cap then eng.degrees <- Array.make cap 0;
      if o.por && Array.length eng.footprints < n * cap then
        eng.footprints <- Array.make (n * cap) (Footprint.local ~pid:0);
      eng.decisions <- decisions;
      drive eng ~pick:trace_pick 0);
  let res = finish eng in
  (* Dropped, so the arena keeps none of the caller's values alive. *)
  eng.o <- no_opts;
  eng.sched <- no_sched;
  eng.decisions <- [||];
  res

let positions eng = eng.npos

let degrees eng = eng.degrees

let footprints eng = eng.footprints

let run ?mode ?sink ?record ?trace_ops ?max_steps ?stall_window ?on_crash ?on_op
    ?(abort = Abort.none) ~n ~model ~sched ~crash ~setup ~body () =
  run_in
    (opts ?mode ?sink ?record ?trace_ops ?max_steps ?stall_window ?on_crash ?on_op ())
    ~arena:(arena ~n ~model ~setup ~body) ~crash ~abort (Sched sched)

let abort_log res =
  let signal (a : abort_stat) = (a.ab_signal_step, a.ab_pid) in
  List.sort (fun a b -> compare (signal a) (signal b)) res.aborts
  |> List.map (fun a ->
         {
           Abort.a_pid = a.ab_pid;
           a_op_index = a.ab_op_index;
           a_step = a.ab_signal_step;
           a_async = a.ab_op_index < 0;
         })

let all_passages res = Array.to_list res.procs |> List.concat_map (fun (p : proc_stats) -> p.passages)

let completed_passages res = List.filter (fun (p : passage) -> p.completed) (all_passages res)

let max_rmr res = List.fold_left (fun acc (p : passage) -> max acc p.rmr) 0 (all_passages res)

let super_totals res =
  Array.to_list res.procs
  |> List.concat_map (fun (proc : proc_stats) ->
         let tbl = Hashtbl.create 16 in
         List.iter
           (fun (p : passage) ->
             let cur = try Hashtbl.find tbl p.super with Not_found -> 0 in
             Hashtbl.replace tbl p.super (cur + p.rmr))
           proc.passages;
         Hashtbl.fold (fun _ v acc -> v :: acc) tbl [])

let max_rmr_super res = List.fold_left max 0 (super_totals res)

let avg_rmr res =
  let ps = all_passages res in
  if ps = [] then 0.0
  else float_of_int (List.fold_left (fun acc (p : passage) -> acc + p.rmr) 0 ps) /. float_of_int (List.length ps)

let avg_rmr_super res =
  let ts = super_totals res in
  if ts = [] then 0.0
  else float_of_int (List.fold_left ( + ) 0 ts) /. float_of_int (List.length ts)

let total_completed res = Array.fold_left (fun acc (p : proc_stats) -> acc + p.completed) 0 res.procs

let latencies res =
  completed_passages res |> List.map (fun (p : passage) -> p.latency) |> List.sort compare

let percentile sorted q =
  match sorted with
  | [] -> 0
  | _ ->
      let len = List.length sorted in
      let ix = int_of_float (q *. float_of_int (len - 1)) in
      List.nth sorted (min (len - 1) (max 0 ix))

let pp_summary ppf res =
  Fmt.pf ppf
    "@[<v>steps=%d rmr=%d crashes=%d completed=%d cs_max=%d deadlocked=%b timed_out=%b%a@,%a@]"
    res.steps res.total_rmr res.total_crashes (total_completed res) res.cs_max res.deadlocked
    res.timed_out
    Fmt.(option (fun ppf s -> pf ppf "@,stall %a" pp_stall s))
    res.stall
    Fmt.(
      list ~sep:cut (fun ppf (l : lock_stats) ->
          pf ppf "lock %-20s max_occupancy=%d unsafe_crashes=%d" l.lock_name l.max_occupancy
            l.unsafe_crashes))
    (List.filter
       (fun (l : lock_stats) -> l.max_occupancy > 0 || l.unsafe_crashes > 0)
       (Array.to_list res.locks))
