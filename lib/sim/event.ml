type seg = Ncs_begin | Req_begin | Cs_begin | Cs_end | Req_done

type note =
  | Seg of seg
  | Lock_enter of int
  | Lock_acquired of int
  | Lock_release of int
  | Lock_released of int
  | Level of int
  | Path of int * bool
  | Abort_signal
  | Abort_request of int
  | Abort_done of int
  | Abort_lost_race of int
  | Custom of string

type t =
  | Note of { step : int; pid : int; super : int; note : note }
  | Crash of {
      step : int;
      pid : int;
      super : int;
      unsafe_wrt : int list;
      holding : int list;
      in_passage : bool;
    }
  | Sys_crash of { step : int }
      (* the whole system crashed at [step]; the per-process [Crash] events
         recorded just after it carry each victim's circumstances *)
  | Op of { step : int; pid : int; kind : string; cell : string; value : int }

let pp_seg ppf = function
  | Ncs_begin -> Fmt.string ppf "ncs"
  | Req_begin -> Fmt.string ppf "req-begin"
  | Cs_begin -> Fmt.string ppf "cs-begin"
  | Cs_end -> Fmt.string ppf "cs-end"
  | Req_done -> Fmt.string ppf "req-done"

let pp_note ppf = function
  | Seg s -> pp_seg ppf s
  | Lock_enter id -> Fmt.pf ppf "lock[%d].enter" id
  | Lock_acquired id -> Fmt.pf ppf "lock[%d].acquired" id
  | Lock_release id -> Fmt.pf ppf "lock[%d].release" id
  | Lock_released id -> Fmt.pf ppf "lock[%d].released" id
  | Level l -> Fmt.pf ppf "level=%d" l
  | Path (l, fast) -> Fmt.pf ppf "path[%d]=%s" l (if fast then "fast" else "slow")
  | Abort_signal -> Fmt.string ppf "abort-signal"
  | Abort_request id -> Fmt.pf ppf "lock[%d].abort-request" id
  | Abort_done id -> Fmt.pf ppf "lock[%d].abort-done" id
  | Abort_lost_race id -> Fmt.pf ppf "lock[%d].abort-lost-race" id
  | Custom s -> Fmt.string ppf s

let pp ppf = function
  | Note { step; pid; super; note } -> Fmt.pf ppf "@[%6d p%d/%d %a@]" step pid super pp_note note
  | Crash { step; pid; super; unsafe_wrt; holding; in_passage } ->
      Fmt.pf ppf "@[%6d p%d/%d CRASH unsafe=%a holding=%a%s@]" step pid super
        Fmt.(Dump.list int)
        unsafe_wrt
        Fmt.(Dump.list int)
        holding
        (if in_passage then " (in passage)" else "")
  | Sys_crash { step } -> Fmt.pf ppf "@[%6d *** SYSTEM CRASH ***@]" step
  | Op { step; pid; kind; cell; value } -> Fmt.pf ppf "@[%6d p%d %s %s =%d@]" step pid kind cell value

let step = function
  | Note { step; _ } -> step
  | Crash { step; _ } -> step
  | Sys_crash { step } -> step
  | Op { step; _ } -> step

(* [-1] for [Sys_crash]: a system crash belongs to no single process. *)
let pid = function
  | Note { pid; _ } -> pid
  | Crash { pid; _ } -> pid
  | Sys_crash _ -> -1
  | Op { pid; _ } -> pid

(* The engine's event sink: the policy deciding what happens to each event
   the engine emits is fixed when the sink is built, so the hot loop pays a
   single physical-equality test ([wants]) instead of an unconditional
   record allocation + Vec push per event. *)
module Sink = struct
  type event = t

  type t =
    | Drop
    | Keep of event Vec.t
    | Ring of { buf : event array; mutable pos : int; mutable total : int }

  (* Shared constant: Drop carries no state, so one value serves every
     engine in every domain. *)
  let drop = Drop

  let keep () = Keep (Vec.create ())

  (* The ring stores the last [capacity] events; slots start as a dummy
     that is never read (only indices below [min total capacity] are). *)
  let ring ~capacity =
    if capacity <= 0 then invalid_arg "Event.Sink.ring: capacity must be positive";
    Ring { buf = Array.make capacity (Sys_crash { step = -1 }); pos = 0; total = 0 }

  let wants = function Drop -> false | Keep _ | Ring _ -> true

  let emit t ev =
    match t with
    | Drop -> ()
    | Keep v -> Vec.push v ev
    | Ring r ->
        r.buf.(r.pos) <- ev;
        r.pos <- (r.pos + 1) mod Array.length r.buf;
        r.total <- r.total + 1

  let emitted = function
    | Drop -> 0
    | Keep v -> Vec.length v
    | Ring r -> r.total

  let events = function
    | Drop -> []
    | Keep v -> Vec.to_list v
    | Ring r ->
        let cap = Array.length r.buf in
        let len = min r.total cap in
        (* Oldest retained event first: it sits at [pos] once the ring has
           wrapped, at 0 before. *)
        let start = if r.total <= cap then 0 else r.pos in
        List.init len (fun i -> r.buf.((start + i) mod cap))

  let clear = function
    | Drop -> ()
    | Keep v -> Vec.clear v
    | Ring r ->
        r.pos <- 0;
        r.total <- 0
end
