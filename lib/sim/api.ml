type cond = Eq of int | Ne of int | Ge of int | Pred of (int -> bool)

let cond_holds c v =
  match c with Eq x -> v = x | Ne x -> v <> x | Ge x -> v >= x | Pred p -> p v

type kind = Read | Write | Cas | Fas | Faa | Spin | Note | Nop

let pp_kind ppf k =
  Fmt.string ppf
    (match k with
    | Read -> "read"
    | Write -> "write"
    | Cas -> "cas"
    | Fas -> "fas"
    | Faa -> "faa"
    | Spin -> "spin"
    | Note -> "note"
    | Nop -> "nop")

type _ view =
  | V_read : Cell.t -> int view
  | V_write : Cell.t * int -> unit view
  | V_get_done : int view
  | V_get_step : int view
  | V_poll_abort : bool view
  | V_yield : unit view
  | V_read_reg : int view
  | V_write_reg : unit view
  | V_cas_reg : bool view
  | V_fas_reg : int view
  | V_faa_reg : int view
  | V_note_reg : unit view
  | V_spin_reg : unit view
  | V_spin_abortable_reg : unit view
  | V_fas_open_unsafe_reg : int view
  | V_write_close_unsafe_reg : unit view
  | V_fas_persist_reg : unit view

exception Abort_signal

let kind_of_view : type a. a view -> kind = function
  | V_read _ | V_read_reg -> Read
  | V_write _ | V_write_close_unsafe_reg | V_write_reg -> Write
  | V_cas_reg -> Cas
  | V_fas_open_unsafe_reg | V_fas_persist_reg | V_fas_reg -> Fas
  | V_faa_reg -> Faa
  | V_spin_reg | V_spin_abortable_reg -> Spin
  | V_note_reg -> Note
  | V_get_done | V_get_step | V_poll_abort | V_yield -> Nop

let is_register_view : type a. a view -> bool = function
  | V_read_reg | V_write_reg | V_cas_reg | V_fas_reg | V_faa_reg | V_note_reg | V_spin_reg
  | V_spin_abortable_reg | V_fas_open_unsafe_reg | V_write_close_unsafe_reg | V_fas_persist_reg ->
      true
  | V_read _ | V_write _ | V_get_done | V_get_step | V_poll_abort | V_yield -> false

type operands = {
  mutable cell : Cell.t;
  mutable arg : int;
  mutable arg2 : int;
  mutable dst : Cell.t;
  mutable note : Event.note;
  mutable cond : cond;
}

let no_cell = Cell.make ~id:(-1) ~name:"-" ~home:Cell.global

let make_operands () =
  {
    cell = no_cell;
    arg = 0;
    arg2 = 0;
    dst = no_cell;
    note = Event.Seg Event.Ncs_begin;
    cond = Eq 0;
  }

(* A pointer store pays the write barrier; these skip it when the field
   already holds the value, as it does while a process loops on one cell,
   condition or constant note. *)
let set_cell o c = if o.cell != c then o.cell <- c

let set_cond o c = if o.cond != c then o.cond <- c

let set_note o n = if o.note != n then o.note <- n

let load_operands : type a. a view -> reg:operands -> operands -> unit =
 fun view ~reg o ->
  match view with
  | V_read_reg -> set_cell o reg.cell
  | V_write_reg | V_fas_reg | V_faa_reg ->
      set_cell o reg.cell;
      o.arg <- reg.arg
  | V_cas_reg | V_fas_open_unsafe_reg | V_write_close_unsafe_reg ->
      set_cell o reg.cell;
      o.arg <- reg.arg;
      o.arg2 <- reg.arg2
  | V_fas_persist_reg ->
      set_cell o reg.cell;
      o.arg <- reg.arg;
      if o.dst != reg.dst then o.dst <- reg.dst
  | V_note_reg -> set_note o reg.note
  | V_spin_reg | V_spin_abortable_reg ->
      set_cell o reg.cell;
      set_cond o reg.cond
  | V_read c -> o.cell <- c
  | V_write (c, v) ->
      o.cell <- c;
      o.arg <- v
  | V_get_done | V_get_step | V_poll_abort | V_yield -> ()

(* One register per domain: a fiber fills it and performs its effect, and
   the engine copies it out before any other fiber of that domain runs, so
   concurrent engines in different domains never share one. *)
let register_key = Domain.DLS.new_key make_operands

let register () = Domain.DLS.get register_key

type _ Effect.t += Instr : 'a view -> 'a Effect.t

(* The argument-carrying instructions, the spins and the window-marking
   ones included, fill the register and perform one shared effect value
   per kind, so a call allocates no view and no [Instr] block; the
   argument-free ones need no register at all. *)
let read_eff = Instr V_read_reg

let write_eff = Instr V_write_reg

let cas_eff = Instr V_cas_reg

let fas_eff = Instr V_fas_reg

let faa_eff = Instr V_faa_reg

let note_eff = Instr V_note_reg

let spin_eff = Instr V_spin_reg

let spin_abortable_eff = Instr V_spin_abortable_reg

let fas_open_unsafe_eff = Instr V_fas_open_unsafe_reg

let write_close_unsafe_eff = Instr V_write_close_unsafe_reg

let fas_persist_eff = Instr V_fas_persist_reg

let read c =
  let r = register () in
  set_cell r c;
  Effect.perform read_eff

let write c v =
  let r = register () in
  set_cell r c;
  r.arg <- v;
  Effect.perform write_eff

let cas c ~expect ~value =
  let r = register () in
  set_cell r c;
  r.arg <- expect;
  r.arg2 <- value;
  Effect.perform cas_eff

let fas c v =
  let r = register () in
  set_cell r c;
  r.arg <- v;
  Effect.perform fas_eff

let faa c v =
  let r = register () in
  set_cell r c;
  r.arg <- v;
  Effect.perform faa_eff

let fas_open_unsafe ~lock c v =
  let r = register () in
  set_cell r c;
  r.arg <- v;
  r.arg2 <- lock;
  Effect.perform fas_open_unsafe_eff

let write_close_unsafe ~lock c v =
  let r = register () in
  set_cell r c;
  r.arg <- v;
  r.arg2 <- lock;
  Effect.perform write_close_unsafe_eff

let fas_persist c v ~dst =
  let r = register () in
  set_cell r c;
  r.arg <- v;
  if r.dst != dst then r.dst <- dst;
  Effect.perform fas_persist_eff

let spin_until c cond =
  let r = register () in
  set_cell r c;
  set_cond r cond;
  Effect.perform spin_eff

let spin_abortable c cond =
  let r = register () in
  set_cell r c;
  set_cond r cond;
  Effect.perform spin_abortable_eff

let poll_abort_eff = Instr V_poll_abort

let get_done_eff = Instr V_get_done

let get_step_eff = Instr V_get_step

let yield_eff = Instr V_yield

let poll_abort () = Effect.perform poll_abort_eff

let note n =
  set_note (register ()) n;
  Effect.perform note_eff

let completed_requests () = Effect.perform get_done_eff

let step () = Effect.perform get_step_eff

let yield () = Effect.perform yield_eff
