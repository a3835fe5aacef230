(* Access footprints for partial-order reduction.

   A footprint describes, in one unboxed int, what a single engine step
   touches: the stepping pid, the shared location involved, and whether the
   access commutes with other accesses to the same location.  The explorer
   asks [independent] whether two steps of different processes can be
   swapped without changing any observable verdict; every "don't know" in
   the encoding errs towards "dependent", which costs pruning but never
   soundness.

   Layout (low to high bits):
     0-1   class: 0 local, 1 read, 2 write, 3 global
     2     crashy: the crash plan may fire on this step, so the step may
           additionally perform crash teardown (CS/lock bookkeeping)
     3-18  pid (16 bits)
     19+   location code: 0 none, 1 the application-CS pseudo-cell,
           2k+2 the real memory cell k, 2k+3 the pseudo-cell of lock k

   The pseudo-cells exist because the engine's aggregate statistics are
   shared state too: [cs_max] and per-lock [max_occupancy] are running
   maxima, and swapping an enter with another process's exit changes the
   observed peak.  Segment notes that only touch per-process counters
   ([Req_begin], [Req_done], levels, paths) are local. *)

type t = int

let cls_local = 0

let cls_read = 1

let cls_write = 2

let cls_global = 3

let code_none = 0

let code_cs = 1

let code_cell id = (2 * id) + 2

let code_lock id = (2 * id) + 3

let max_pid = 0xffff

let make ~pid ~crashy cls code =
  (code lsl 19) lor (pid lsl 3) lor (if crashy then 4 else 0) lor cls

let local ~pid = make ~pid ~crashy:false cls_local code_none

let pid t = (t lsr 3) land max_pid

let cls t = t land 3

let crashy t = t land 4 <> 0

let code t = t lsr 19

(* Pseudo-cells: the CS marker and the per-lock occupancy markers. *)
let is_pseudo code = code = 1 || (code >= 3 && code land 1 = 1)

(* A woken waiter's pending step re-checks its spin cell. *)
let waiting ~pid (c : Cell.t) = make ~pid ~crashy:false cls_write (code_cell c.Cell.id)

let of_note ~pid ~crashy (n : Event.note) =
  match n with
  | Event.Seg (Event.Cs_begin | Event.Cs_end) -> make ~pid ~crashy cls_write code_cs
  | Event.Seg (Event.Ncs_begin | Event.Req_begin | Event.Req_done) ->
      make ~pid ~crashy cls_local code_none
  | Event.Lock_acquired id | Event.Lock_release id | Event.Lock_enter id
  | Event.Lock_released id ->
      make ~pid ~crashy cls_write (code_lock id)
  (* Abort resolutions move the same per-lock occupancy aggregates the
     acquire/release milestones do. *)
  | Event.Abort_done id | Event.Abort_lost_race id | Event.Abort_request id ->
      make ~pid ~crashy cls_write (code_lock id)
  | Event.Level _ | Event.Path _ | Event.Custom _ | Event.Abort_signal ->
      make ~pid ~crashy cls_local code_none

let of_pending : type a. pid:int -> crashy:bool -> a Api.view -> Api.operands -> t =
 fun ~pid ~crashy view o ->
  match view with
  | Api.V_read _ | Api.V_read_reg -> make ~pid ~crashy cls_read (code_cell o.cell.Cell.id)
  | Api.V_write _ | Api.V_write_reg | Api.V_cas_reg | Api.V_fas_reg
  | Api.V_fas_open_unsafe_reg | Api.V_write_close_unsafe_reg | Api.V_faa_reg ->
      make ~pid ~crashy cls_write (code_cell o.cell.Cell.id)
  (* Touches two cells atomically; a single-location footprint cannot
     express that, so it conflicts with everything. *)
  | Api.V_fas_persist_reg -> make ~pid ~crashy cls_global code_none
  (* Spins park and their writers unpark: order against any access to the
     cell matters, so the whole wait protocol is write-class. *)
  | Api.V_spin_reg | Api.V_spin_abortable_reg -> make ~pid ~crashy cls_write (code_cell o.cell.Cell.id)
  | Api.V_note_reg -> of_note ~pid ~crashy o.note
  | Api.V_get_done -> make ~pid ~crashy cls_local code_none
  (* Reads the global step counter — excluded from state keys and robust
     checks like latencies, so local for reduction purposes. *)
  | Api.V_get_step -> make ~pid ~crashy cls_local code_none
  (* Reads the engine's abort flag, which only abort decisions (covered by
     the Sensitive POR downgrade) and the process's own protocol move. *)
  | Api.V_poll_abort -> make ~pid ~crashy cls_local code_none
  | Api.V_yield -> make ~pid ~crashy cls_local code_none

(* A register view carries no operands, so on its own it could touch
   anything. *)
let of_view ~pid ~crashy view =
  if Api.is_register_view view then make ~pid ~crashy cls_global code_none
  else begin
    let o = Api.make_operands () in
    Api.load_operands view ~reg:o o;
    of_pending ~pid ~crashy view o
  end

(* Crash teardown (close the CS, drop held locks, forget the cache) commutes
   with other processes' plain memory accesses but not with anything that
   reads or moves the same aggregate state: the pseudo-cells, global steps,
   and other potentially-crashing steps. *)
let crash_conflict a b = crashy a && (crashy b || is_pseudo (code b) || cls b = cls_global)

let independent a b =
  let ca = a land 3 and cb = b land 3 in
  if ca = cls_global || cb = cls_global then false
  else if crash_conflict a b || crash_conflict b a then false
  else if ca = cls_local || cb = cls_local then true
  else code a <> code b || (ca = cls_read && cb = cls_read)

(* ------------------------------------------------------------------ *)
(* Happens-before / race-reversal analysis                             *)
(* ------------------------------------------------------------------ *)

(* Source-set computation for the explorer's dynamic partial-order
   reduction.  [Race.scan] walks the executed steps of one complete run,
   maintains a vector clock per process (the happens-before relation
   induced by program order plus dependence between steps, with
   {!independent} as the commutation oracle), and reports every
   {e reversible race}: a pair of dependent steps (k, j), k < j, of
   different processes with no intervening happens-before chain — exactly
   the pairs whose order the run committed to without being forced to.
   For each race at a branching decision position it emits the process the
   explorer must additionally schedule at [k] to cover the reversal: the
   first step after [k] that is not happens-after step [k] (an initial of
   the independent prefix of the reversal, in DPOR terms), defaulting to
   the racing step's own process when every intermediate step is ordered.

   Every "maybe dependent" in the footprint encoding errs towards
   reporting a race, which costs the explorer extra schedules but never
   coverage. *)
module Race = struct
  (* One scan's working storage, kept by the caller across scans and grown
     when a scan needs more.  [eclock.(j*n + q)]: highest position of a
     step of process [q] that happens-before (or is) step [j]; -1 if none.
     [cur.(p*n + q)]: the same clock carried forward along process [p]'s
     program order.  [evs.(p)]: positions of process [p]'s steps so far, in
     order.  [v]: the clock of the step being scanned.  [cand_pos]: the
     race candidates of one step, at most one per other process.  [found]:
     the scan's races, as (position, pid) pairs in emission order. *)
  type scratch = {
    mutable n : int;
    mutable eclock : int array;
    mutable cur : int array;
    mutable evs : int Vec.t array;
    mutable v : int array;
    mutable cand_pos : int array;
    found : int Vec.t;
  }

  let scratch () =
    { n = 0; eclock = [||]; cur = [||]; evs = [||]; v = [||]; cand_pos = [||]; found = Vec.create () }

  (* Size [s] for [n] processes and [len] positions and clear what a scan
     reads before writing: [cur] and [evs].  [eclock] rows are
     written before they are read, and [v] and [cand_pos] per step. *)
  let prepare s ~n ~len =
    if s.n <> n then begin
      s.n <- n;
      s.cur <- Array.make (n * n) (-1);
      s.evs <- Array.init n (fun _ -> Vec.create ());
      s.v <- Array.make n (-1);
      s.cand_pos <- Array.make n (-1)
    end
    else begin
      Array.fill s.cur 0 (n * n) (-1);
      Array.iter Vec.clear s.evs
    end;
    if Array.length s.eclock < len * n then
      s.eclock <- Array.make (max (len * n) (2 * Array.length s.eclock)) (-1)

  (* The first position in [(k, j)] whose step is not happens-after step
     [k] of process [q] ([eclock.(m*n+q) >= k] iff a step of q at or past
     [k] happens-before step [m]), or [j] when there is none. *)
  let rec initial eclock ~n ~q ~k ~j m =
    if m >= j || eclock.((m * n) + q) < k then m else initial eclock ~n ~q ~k ~j (m + 1)

  (* [scan s ~n ~len ~executed ~degrees]: [executed.(i)] is the footprint
     of the step the run took at decision position [i]; [degrees.(i)] its
     branching degree (races at degree-1 positions have no alternative
     schedule and are not recorded); each race found demands that the
     explorer also try scheduling some pid at some position, read back
     through [races], [race_pos] and [race_pid].  O(len * n) plus the
     race-initial walks. *)
  let scan s ~n ~len ~(executed : t array) ~degrees =
    Vec.clear s.found;
    if len > 0 then begin
      prepare s ~n ~len;
      let eclock = s.eclock and cur = s.cur and evs = s.evs and v = s.v in
      let cand_pos = s.cand_pos in
      for j = 0 to len - 1 do
        let f = executed.(j) in
        let p = pid f in
        Array.blit cur (p * n) v 0 n;
        v.(p) <- j;
        if cls f <> cls_local then begin
          (* Last dependent step of every other process, ignoring steps
             already inside this step's happens-before past. *)
          for q = 0 to n - 1 do
            cand_pos.(q) <- -1;
            if q <> p then begin
              let qevs = evs.(q) in
              let i = ref (Vec.length qevs - 1) in
              let stop = ref false in
              while (not !stop) && !i >= 0 do
                let k = Vec.unsafe_get qevs !i in
                if k <= v.(q) then stop := true
                else if not (independent executed.(k) f) then begin
                  cand_pos.(q) <- k;
                  stop := true
                end
                else decr i
              done
            end
          done;
          (* Process candidates latest-first so merging the clock of a
             later dependent step can reveal that an earlier candidate is
             already ordered (fewer false races). *)
          let continue_ = ref true in
          while !continue_ do
            let best = ref (-1) in
            for q = 0 to n - 1 do
              if cand_pos.(q) > !best then best := cand_pos.(q)
            done;
            if !best < 0 then continue_ := false
            else begin
              let k = !best in
              let q = pid executed.(k) in
              cand_pos.(q) <- -1;
              if k > v.(q) then begin
                (* Reversible race between steps k and j.  Its initial is
                   the first step after [k] not happens-after step [k],
                   else the racing step's own process. *)
                if degrees.(k) > 1 then begin
                  let m = initial eclock ~n ~q ~k ~j (k + 1) in
                  Vec.push s.found k;
                  Vec.push s.found (if m >= j then p else pid executed.(m))
                end;
                (* Dependence orders k before j for later steps. *)
                for r = 0 to n - 1 do
                  let x = eclock.((k * n) + r) in
                  if x > v.(r) then v.(r) <- x
                done;
                if k > v.(q) then v.(q) <- k
              end
              else begin
                (* Already ordered; still merge to tighten the clock. *)
                for r = 0 to n - 1 do
                  let x = eclock.((k * n) + r) in
                  if x > v.(r) then v.(r) <- x
                done
              end
            end
          done
        end;
        Array.blit v 0 eclock (j * n) n;
        Array.blit v 0 cur (p * n) n;
        Vec.push evs.(p) j
      done
    end

  let races s = Vec.length s.found / 2

  let race_pos s i = Vec.get s.found (2 * i)

  let race_pid s i = Vec.get s.found ((2 * i) + 1)
end

let pp ppf t =
  let k = match cls t with 0 -> "local" | 1 -> "read" | 2 -> "write" | _ -> "global" in
  let loc =
    let c = code t in
    if c = code_none then ""
    else if c = code_cs then "@CS"
    else if c land 1 = 1 then Printf.sprintf "@lock%d" ((c - 3) / 2)
    else Printf.sprintf "@cell%d" ((c - 2) / 2)
  in
  Fmt.pf ppf "p%d:%s%s%s" (pid t) k loc (if crashy t then "!" else "")
