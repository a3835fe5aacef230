(** The instruction set available to simulated processes.

    Lock implementations and process bodies call these functions; each one
    performs an effect that suspends the process and hands control to the
    engine, which applies the instruction to shared memory, charges RMRs,
    and may inject a crash immediately before or after it (§2.2 of the
    paper).

    The functions in this module must only be called from inside a process
    body running under {!Engine.run}. *)

(** Condition for local-spin waiting.  [Pred] carries an arbitrary
    host-level predicate, re-evaluated by the engine on every wake. *)
type cond = Eq of int | Ne of int | Ge of int | Pred of (int -> bool)

val cond_holds : cond -> int -> bool

(** Static classification of instructions, visible to crash plans and
    tracing. *)
type kind = Read | Write | Cas | Fas | Faa | Spin | Note | Nop

val pp_kind : kind Fmt.t

(** The engine-side view of a suspended instruction.

    Every instruction with operands — {!read}, {!write}, {!cas}, {!fas},
    {!faa}, {!note}, {!spin_until}, {!spin_abortable}, {!fas_open_unsafe},
    {!write_close_unsafe} and {!fas_persist} — performs one of the eleven
    {e register views} ([V_read_reg] … [V_fas_persist_reg]): constant
    constructors whose operands travel in this domain's operand
    {!register}.  The only views that carry their operands inline are
    [V_read] and [V_write], which remain for code that performs {!Instr}
    directly or asks {!Footprint.of_view} about a given cell. *)
type _ view =
  | V_read : Cell.t -> int view
  | V_write : Cell.t * int -> unit view
  | V_get_done : int view
  | V_get_step : int view
  | V_poll_abort : bool view
  | V_yield : unit view
  | V_read_reg : int view  (** {!read}: the cell in [cell] *)
  | V_write_reg : unit view  (** {!write}: the cell in [cell], the value in [arg] *)
  | V_cas_reg : bool view  (** {!cas}: [cell], expected value [arg], new value [arg2] *)
  | V_fas_reg : int view  (** {!fas}: [cell], the value stored in [arg] *)
  | V_faa_reg : int view  (** {!faa}: [cell], the increment in [arg] *)
  | V_note_reg : unit view  (** {!note}: the payload in [note] *)
  | V_spin_reg : unit view  (** {!spin_until}: [cell], the condition in [cond] *)
  | V_spin_abortable_reg : unit view
      (** {!spin_abortable}: like [V_spin_reg] but also completes — with the
          condition possibly still false — when the spinning process
          carries a pending abort signal.  Follow with {!poll_abort} to
          tell the two wake reasons apart. *)
  | V_fas_open_unsafe_reg : int view
      (** {!fas_open_unsafe}: FAS of [arg] into [cell] that opens lock
          [arg2]'s sensitive window (the WR-Lock append, Algorithm 2 line
          "FAS(tail, mine\[i\])"). *)
  | V_write_close_unsafe_reg : unit view
      (** {!write_close_unsafe}: write of [arg] into [cell] that closes lock
          [arg2]'s sensitive window (persisting the FAS result into
          [pred]). *)
  | V_fas_persist_reg : unit view
      (** {!fas_persist}: atomic FAS of [arg] into [cell] whose result is
          persisted into [dst], the stronger instruction used by the
          [kport] substitution (DESIGN.md S1). *)

exception Abort_signal
(** Raised by abortable lock [acquire] code when it observes a pending
    abort signal (via {!poll_abort} after {!spin_abortable}); caught by the
    harness body, which then runs the lock's [try_abort] protocol.  Never
    raised by the engine itself. *)

val kind_of_view : 'a view -> kind

val is_register_view : 'a view -> bool
(** [true] for the eleven register views, whose operands are not in the view. *)

(** {1 Operands}

    The operands of one instruction: its cell, up to two integer
    arguments, a second cell, a note payload and a spin condition.  Which
    fields mean something depends on the view (see the register views
    above): [arg] is also the value {!fas_open_unsafe},
    {!write_close_unsafe} and {!fas_persist} store, [arg2] the lock id of
    the first two, and [dst] {!fas_persist}'s destination. *)

type operands = {
  mutable cell : Cell.t;
  mutable arg : int;
  mutable arg2 : int;
  mutable dst : Cell.t;
  mutable note : Event.note;
  mutable cond : cond;
}

val make_operands : unit -> operands
(** A fresh record; its cells are a placeholder with id [-1]. *)

val register : unit -> operands
(** This domain's operand register.  A register view's operands are valid
    in it from the instruction's [perform] until the engine has taken its
    suspension, and no longer: the next instruction of any fiber in the
    domain overwrites them. *)

val load_operands : 'a view -> reg:operands -> operands -> unit
(** [load_operands view ~reg o] stores [view]'s operands in [o]: a
    register view's from [reg] (the {!register} it was performed with),
    an inline view's from the view itself.  Fields the view does not use
    keep their old contents.  No allocation. *)

type _ Effect.t += Instr : 'a view -> 'a Effect.t
(** The single effect simulated processes perform; handled by {!Engine}.
    Every instruction function performs a shared top-level [Instr] value.
    The argument-free instructions ({!step}, {!yield},
    {!completed_requests}, {!poll_abort}) need no operands; the others
    first store theirs in the {!register}, so no instruction call
    allocates. *)

(** {1 Instructions} *)

val read : Cell.t -> int

val write : Cell.t -> int -> unit

val cas : Cell.t -> expect:int -> value:int -> bool
(** Returns [true] iff the swap happened. *)

val fas : Cell.t -> int -> int
(** Atomically stores the argument and returns the previous contents. *)

val faa : Cell.t -> int -> int
(** Atomically adds and returns the previous contents. *)

val fas_open_unsafe : lock:int -> Cell.t -> int -> int
(** Like {!fas} but marks the executing process as inside lock [lock]'s
    sensitive window: a crash from immediately after this instruction until
    the matching {!write_close_unsafe} is an {e unsafe failure} with respect
    to that lock (Definition 3.4). *)

val write_close_unsafe : lock:int -> Cell.t -> int -> unit
(** Like {!write} but closes the sensitive window opened by
    {!fas_open_unsafe}: a crash after this instruction is safe again. *)

val fas_persist : Cell.t -> int -> dst:Cell.t -> unit
(** Atomically [dst := FAS(cell, v)].  Not available on commodity hardware;
    used only by the [kport] base-lock substitution, see DESIGN.md S1. *)

val spin_until : Cell.t -> cond -> unit
(** Local-spin wait until the cell satisfies [cond].  The engine parks the
    process and wakes it when a write makes the condition true; RMR
    accounting charges the initial fetch and one re-fetch per wake, which is
    the standard O(1)-per-handoff cost of local spinning. *)

val spin_abortable : Cell.t -> cond -> unit
(** Local-spin wait that an abort signal can interrupt: parks like
    {!spin_until} but additionally wakes (and returns) when the engine has
    flagged the process for abort.  On return the condition may still be
    false — call {!poll_abort} and raise {!Abort_signal} to hand control to
    the abort protocol.  RMR accounting is identical to {!spin_until}. *)

val poll_abort : unit -> bool
(** [true] iff the calling process carries a pending (unresolved) abort
    signal.  Free: no RMRs, but a scheduling point. *)

val note : Event.note -> unit
(** Emit a history event (free: no RMRs, but it is a scheduling point). *)

val completed_requests : unit -> int
(** Number of satisfied requests of the calling process, tracked by the
    engine as recoverable application state (it survives crashes). *)

val step : unit -> int
(** The current global engine step — simulated time.  Free: no RMRs, but a
    scheduling point.  Open-loop workload generators pace arrivals against
    it ([while Api.step () < due do Api.yield () done]). *)

val yield : unit -> unit
(** A pure scheduling point: lets the scheduler interleave (and the crash
    plan strike) between two local computations. *)
