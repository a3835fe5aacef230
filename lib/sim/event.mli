(** Execution-history events.

    When history recording is enabled the engine appends one event per
    noteworthy occurrence: segment transitions of the standard process loop
    (Algorithm 1 of the paper), per-lock milestones emitted by lock
    implementations, and crashes.  The offline property checkers
    ({!module:Rme_check.Props} in [lib/check]) consume these. *)

(** Segment transitions of the Algorithm-1 loop, emitted by the harness. *)
type seg =
  | Ncs_begin  (** process entered its non-critical section *)
  | Req_begin  (** passage start: Recover segment entered *)
  | Cs_begin   (** process entered the (application) critical section *)
  | Cs_end     (** process left the critical section *)
  | Req_done   (** failure-free passage completed: request satisfied *)

type note =
  | Seg of seg
  | Lock_enter of int  (** lock [id]: Recover/Enter of this lock begins *)
  | Lock_acquired of int  (** lock [id]: holder enters the lock's CS *)
  | Lock_release of int  (** lock [id]: Exit segment begins *)
  | Lock_released of int  (** lock [id]: Exit segment completed *)
  | Level of int  (** BA-Lock: the process starts competing at this level *)
  | Path of int * bool  (** BA-Lock/SA-Lock: level, [true] = fast path *)
  | Abort_signal
      (** the engine delivered an abort signal to this process (adversary
          decision point; emitted by the engine, not by lock code) *)
  | Abort_request of int  (** lock [id]: the victim starts its abort protocol *)
  | Abort_done of int  (** lock [id]: abort completed, request abandoned *)
  | Abort_lost_race of int
      (** lock [id]: the abort lost the race — the process acquired the
          lock instead and now holds its CS (no {!Lock_acquired} fires) *)
  | Custom of string

type t =
  | Note of { step : int; pid : int; super : int; note : note }
  | Crash of {
      step : int;
      pid : int;
      super : int;  (** index of the super-passage the crash interrupts *)
      unsafe_wrt : int list;  (** weakly recoverable locks whose sensitive window was open *)
      holding : int list;  (** locks whose CS the process occupied *)
      in_passage : bool;
    }
  | Sys_crash of { step : int }
      (** the whole system crashed at [step] (every process's continuation
          erased at once, NVRAM persisting); the per-process {!Crash}
          events recorded immediately after it carry each victim's
          circumstances *)
  | Op of { step : int; pid : int; kind : string; cell : string; value : int }
      (** one applied shared-memory instruction and the cell contents after
          it (the value read, for reads); recorded only under [trace_ops].
          Instructions suppressed by a crash-before are not recorded. *)

val pp_seg : seg Fmt.t

val pp_note : note Fmt.t

val pp : t Fmt.t

val step : t -> int

val pid : t -> int
(** [-1] for {!Sys_crash}: a system crash belongs to no single process. *)

(** Compile-once event sinks.

    The engine emits every history event into a sink whose policy is fixed
    at construction: the hot loop asks {!Sink.wants} once per run and skips
    event {e construction} entirely for a {!Sink.drop} sink, so an
    uninstrumented passage allocates no event records at all.  [Keep]
    preserves the full history (the pre-existing [record:true] behaviour),
    and [Ring] the last [capacity] events (bounded-memory flight recorder
    for long service runs). *)
module Sink : sig
  type event = t

  type t

  val drop : t
  (** Discards every event.  A shared constant — carries no state, so the
      same value may serve concurrent engines on separate domains. *)

  val keep : unit -> t
  (** Retains every event, in emission order. *)

  val ring : capacity:int -> t
  (** Retains the last [capacity] events.  {!emitted} still counts every
      emission.  @raise Invalid_argument when [capacity <= 0]. *)

  val wants : t -> bool
  (** [false] iff the sink is {!drop} — the engine's gate for skipping
      event construction. *)

  val emit : t -> event -> unit

  val emitted : t -> int
  (** Events emitted into the sink ([Keep]: retained; [Ring]: total ever
      delivered; [drop]: 0). *)

  val events : t -> event list
  (** The retained events in emission order.  [Keep]: all of them; [Ring]:
      the last [<= capacity], oldest first; [drop]: [[]]. *)

  val clear : t -> unit
end
