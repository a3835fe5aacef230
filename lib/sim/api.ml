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
  | V_cas : Cell.t * int * int -> bool view
  | V_fas : Cell.t * int -> int view
  | V_fas_open_unsafe : int * Cell.t * int -> int view
  | V_fas_persist : Cell.t * int * Cell.t -> unit view
  | V_write_close_unsafe : int * Cell.t * int -> unit view
  | V_faa : Cell.t * int -> int view
  | V_spin : Cell.t * cond -> unit view
  | V_spin_abortable : Cell.t * cond -> unit view
  | V_note : Event.note -> unit view
  | V_get_done : int view
  | V_get_step : int view
  | V_poll_abort : bool view
  | V_yield : unit view

exception Abort_signal

let kind_of_view : type a. a view -> kind = function
  | V_read _ -> Read
  | V_write _ -> Write
  | V_cas _ -> Cas
  | V_fas _ -> Fas
  | V_fas_open_unsafe _ -> Fas
  | V_fas_persist _ -> Fas
  | V_write_close_unsafe _ -> Write
  | V_faa _ -> Faa
  | V_spin _ -> Spin
  | V_spin_abortable _ -> Spin
  | V_note _ -> Note
  | V_get_done -> Nop
  | V_get_step -> Nop
  | V_poll_abort -> Nop
  | V_yield -> Nop

let cell_of_view : type a. a view -> Cell.t option = function
  | V_read c -> Some c
  | V_write (c, _) -> Some c
  | V_cas (c, _, _) -> Some c
  | V_fas (c, _) -> Some c
  | V_fas_open_unsafe (_, c, _) -> Some c
  | V_fas_persist (c, _, _) -> Some c
  | V_write_close_unsafe (_, c, _) -> Some c
  | V_faa (c, _) -> Some c
  | V_spin (c, _) -> Some c
  | V_spin_abortable (c, _) -> Some c
  | V_note _ | V_get_done | V_get_step | V_poll_abort | V_yield -> None

type _ Effect.t += Instr : 'a view -> 'a Effect.t

let read c = Effect.perform (Instr (V_read c))

let write c v = Effect.perform (Instr (V_write (c, v)))

let cas c ~expect ~value = Effect.perform (Instr (V_cas (c, expect, value)))

let fas c v = Effect.perform (Instr (V_fas (c, v)))

let faa c v = Effect.perform (Instr (V_faa (c, v)))

let fas_open_unsafe ~lock c v = Effect.perform (Instr (V_fas_open_unsafe (lock, c, v)))

let write_close_unsafe ~lock c v = Effect.perform (Instr (V_write_close_unsafe (lock, c, v)))

let fas_persist c v ~dst = Effect.perform (Instr (V_fas_persist (c, v, dst)))

let spin_until c cond = Effect.perform (Instr (V_spin (c, cond)))

let spin_abortable c cond = Effect.perform (Instr (V_spin_abortable (c, cond)))

(* The argument-free instructions perform one shared effect value each, so
   a call allocates no [Instr] block. *)
let poll_abort_eff = Instr V_poll_abort

let get_done_eff = Instr V_get_done

let get_step_eff = Instr V_get_step

let yield_eff = Instr V_yield

let poll_abort () = Effect.perform poll_abort_eff

let note n = Effect.perform (Instr (V_note n))

let completed_requests () = Effect.perform get_done_eff

let step () = Effect.perform get_step_eff

let yield () = Effect.perform yield_eff
