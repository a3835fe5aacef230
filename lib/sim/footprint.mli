(** Access footprints for partial-order reduction.

    One unboxed int per pending step, recording the stepping pid, the shared
    location it touches, and the access class.  The explorer's sleep-set
    reduction (see {!Rme_check.Explore}) consults {!independent} to decide
    whether two steps of different processes commute; the relation is
    conservative, so every "maybe" answers dependent and only true
    commutation is pruned. *)

type t = private int

val local : pid:int -> t
(** A step that touches no shared state (the initial dispatch of a process
    body, per-process segment notes, yields). *)

val waiting : pid:int -> Cell.t -> t
(** Pending step of a woken waiter: a re-check of its spin cell (write
    class — parking and unparking do not commute with accesses to the
    cell). *)

val of_pending : pid:int -> crashy:bool -> 'a Api.view -> Api.operands -> t
(** Footprint of a suspended operation whose operands are in the given
    record (the engine's per-process slot, see {!Api.load_operands}); only
    the view's constructor is read.  [crashy] marks steps of processes the
    crash plan may strike: such a step may additionally run crash teardown
    (closing the CS, releasing held locks), which conflicts with the
    CS/lock pseudo-cells and with other crashy steps. *)

val of_view : pid:int -> crashy:bool -> 'a Api.view -> t
(** {!of_pending} with the operands the view carries inline.  A register
    view ({!Api.is_register_view}) carries none, so its footprint is
    global: it conflicts with every step. *)

val pid : t -> int

val crashy : t -> bool

val independent : t -> t -> bool
(** [independent a b] holds when swapping adjacent steps with footprints [a]
    and [b] (of different pids) provably preserves the final engine state
    and every aggregate statistic a check can observe.  Read/read on the
    same cell commutes; anything involving a write, RMW, or park/unpark on
    that cell does not.  Segment and lock lifecycle notes are treated as
    writes to per-concern pseudo-cells because they move running maxima
    ([cs_max], lock occupancy). *)

val pp : t Fmt.t

(** Happens-before / race-reversal analysis over the executed steps of one
    complete run — the oracle behind the explorer's source-set dynamic
    partial-order reduction (see {!Rme_check.Explore}). *)
module Race : sig
  type scratch
  (** A scan's working storage — the vector clocks, the per-process step
      positions, the race candidates and the demands the last scan
      found — kept by the caller across scans.
      Each scan sizes it for its [n] and [len], growing it only when it is
      too small, so a search that scans every run with one scratch stops
      allocating for the scans once its longest run has been scanned.  One
      scan at a time. *)

  val scratch : unit -> scratch
  (** An empty scratch; the first scan sizes it. *)

  val scan : scratch -> n:int -> len:int -> executed:t array -> degrees:int array -> unit
  (** [scan s ~n ~len ~executed ~degrees], working in [s], computes the
      happens-before relation of a run of [len] decision positions
      ([executed.(i)] is the footprint of the step taken at position [i])
      with per-process vector clocks, finds every {e reversible race} —
      dependent steps [(k, j)], [k < j], of different processes with no
      intervening happens-before chain — and records in [s] one demand
      [(k, pid)] for each race at a branching position
      ([degrees.(k) > 1]), in the order it finds them.  [pid] is the
      process whose scheduling at [k] starts the reversed execution: the
      process of the first step after [k] that is not happens-after step
      [k] (an initial of the reversal, in DPOR terms), defaulting to the
      racing step's process.  The dependence oracle is {!independent}, so
      every conservative "dependent" answer can only add demands, never
      hide one.  O([len] · [n]) plus the per-race initial walks.  The
      scan takes the run's arrays as they are and builds no closure. *)

  val races : scratch -> int
  (** The number of demands the last scan recorded. *)

  val race_pos : scratch -> int -> int
  (** [race_pos s i]: the decision position of the [i]th demand. *)

  val race_pid : scratch -> int -> int
  (** [race_pid s i]: the pid the [i]th demand asks to schedule there. *)
end
