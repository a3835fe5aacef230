type point = Before | After

type decision = No_crash | Crash of point

type op_info = Plan.op_info = {
  mutable pid : int; mutable step : int; mutable op_index : int; mutable kind : Api.kind;
  mutable cell : string option; mutable note : Event.note option; mutable unsafe_wrt : int list;
}

type por_class = Plan.por_class = Robust of int list | Sensitive

type t = (point, unit) Plan.t

let label (t : t) = Lazy.force t.label

let on_op (t : t) info = match t.on_op info with None -> No_crash | Some p -> Crash p

let async (t : t) ~step = t.async ~step ()

let system (t : t) ~step = t.system ~step

let por_class (t : t) = t.por

let none = Plan.none

let at_op ~pid ~nth point : t = Plan.at_op ~tag:"" ~pid ~nth point

let async_at specs : t = Plan.async_at ~tag:"" specs

let system_at ~step : t = Plan.system_at ~step

let all : t list -> t = Plan.all

(* Before or After, uniformly, from a gate that just fired. *)
let draw_point rng = if Random.State.bool rng then Before else After

(* Crash [pid] at the [occurrence]-th instruction satisfying [match_]. *)
let on_match ~label ~pid ~occurrence ~point match_ : t =
  let seen = ref 0 in
  let fired = ref false in
  {
    Plan.none with
    label;
    on_op =
      (fun info ->
        if (not !fired) && info.pid = pid && match_ info then begin
          let k = !seen in
          incr seen;
          if k = occurrence then begin
            fired := true;
            Some point
          end
          else None
        end
        else None);
    por = Robust [ pid ];
  }

let on_kind ~pid ~kind ~occurrence point =
  on_match
    ~label:(lazy (Fmt.str "on-kind(p%d,%a,%d)" pid Api.pp_kind kind occurrence))
    ~pid ~occurrence ~point
    (fun info -> info.kind = kind)

let on_cell ~pid ~cell ~occurrence point =
  on_match
    ~label:(lazy (Printf.sprintf "on-cell(p%d,%s,%d)" pid cell occurrence))
    ~pid ~occurrence ~point
    (fun info -> info.cell = Some cell)

let on_custom_note ~pid ~tag ~occurrence point =
  on_match
    ~label:(lazy (Printf.sprintf "on-note(p%d,%s,%d)" pid tag occurrence))
    ~pid ~occurrence ~point
    (fun info -> match info.note with Some (Event.Custom s) -> s = tag | _ -> false)

let random ~seed ~rate ~max_crashes ?pids () : t =
  Plan.coin
    ~label:(lazy (Printf.sprintf "random(rate=%g,max=%d)" rate max_crashes))
    ?pids
    (Plan.gate "Crash.random" ~salt:0x5ca1ab1e ~seed ~rate ~budget:max_crashes ())
    draw_point

let fas_gap ~seed ~rate ~max_crashes ?(cell_suffix = "filter.tail") () : t =
  let gate = Plan.gate "Crash.fas_gap" ~salt:0xdeadfa5 ~seed ~rate ~budget:max_crashes () in
  {
    Plan.none with
    label = lazy (Printf.sprintf "fas-gap(rate=%g,max=%d)" rate max_crashes);
    on_op =
      (fun info ->
        match info.cell with
        | Some cell
          when info.kind = Api.Fas && String.ends_with ~suffix:cell_suffix cell
               && Plan.fire gate ~step:info.step ->
            Some After
        | _ -> None);
    por = Sensitive;
  }

let batch ~step ~pids = { (async_at (List.map (fun p -> (step, p)) pids)) with label = lazy "batch" }

let every_nth_passage ~pid ~period ~max_crashes : t =
  if period <= 0 then invalid_arg "Crash.every_nth_passage: period must be positive";
  let passages = ref 0 in
  let budget = ref max_crashes in
  {
    Plan.none with
    label = lazy (Printf.sprintf "every-nth-passage(p%d,%d)" pid period);
    on_op =
      (fun info ->
        match info.note with
        | Some (Event.Seg Event.Req_begin) when info.pid = pid && !budget > 0 ->
            let k = !passages in
            incr passages;
            if k mod period = period - 1 then begin
              decr budget;
              Some After
            end
            else None
        | _ -> None);
    por = Robust [ pid ];
  }

let target_holder ?lock ~seed ~rate ~max_crashes () : t =
  let gate = Plan.gate "Crash.target_holder" ~salt:0x401de2 ~seed ~rate ~budget:max_crashes () in
  let inside : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let matches id = match lock with None -> true | Some l -> l = id in
  {
    Plan.none with
    label = lazy (Printf.sprintf "holder(rate=%g,max=%d)" rate max_crashes);
    on_op =
      (fun info ->
        (* Track the span before deciding, so the entering note itself is a
           valid strike point.  A fresh [Ncs_begin]/[Req_begin] clears the
           mark: a crash (ours or another plan's) restarts the body, and the
           stale span must not leak into the victim's NCS. *)
        (match info.note with
        | Some (Event.Lock_enter id) when matches id -> Hashtbl.replace inside info.pid ()
        | Some (Event.Lock_released id) when matches id -> Hashtbl.remove inside info.pid
        | Some (Event.Seg (Event.Ncs_begin | Event.Req_begin)) -> Hashtbl.remove inside info.pid
        | _ -> ());
        if Hashtbl.mem inside info.pid && Plan.fire gate ~step:info.step then
          Some (draw_point (Plan.rng gate))
        else None);
    por = Sensitive;
  }

let target_window ~seed ~rate ~max_crashes () : t =
  let gate = Plan.gate "Crash.target_window" ~salt:0x7a26e7 ~seed ~rate ~budget:max_crashes () in
  {
    Plan.none with
    label = lazy (Printf.sprintf "window(rate=%g,max=%d)" rate max_crashes);
    on_op =
      (fun info ->
        (* [Before] keeps the crash strictly inside the open window: crashing
           After the instruction that closes it would land outside. *)
        if info.unsafe_wrt <> [] && Plan.fire gate ~step:info.step then Some Before else None);
    por = Sensitive;
  }

let repeat_offender ~victim ~gap ~times : t =
  if gap < 0 then invalid_arg "Crash.repeat_offender: gap must be non-negative";
  let budget = ref times in
  let countdown = ref (-1) in
  {
    Plan.none with
    label = lazy (Printf.sprintf "repeat-offender(p%d,gap=%d,times=%d)" victim gap times);
    on_op =
      (fun info ->
        if info.pid <> victim || !budget <= 0 then None
        else begin
          (match info.note with
          | Some (Event.Seg Event.Req_begin) when !countdown < 0 -> countdown := gap
          | _ -> ());
          if !countdown = 0 then begin
            (* Re-arm immediately: the next strike lands [gap] victim
               instructions into the restarted (recovering) passage. *)
            countdown := gap;
            decr budget;
            Some After
          end
          else begin
            if !countdown > 0 then decr countdown;
            None
          end
        end);
    por = Robust [ victim ];
  }

let storm ~seed ~rate ~max_crashes ~gap ?(backoff = 1.0) ?pids () : t =
  Plan.coin
    ~label:
      (lazy (Printf.sprintf "storm(rate=%g,max=%d,gap=%d,backoff=%g)" rate max_crashes gap backoff))
    ?pids
    (Plan.gate "Crash.storm" ~salt:0x5702e0 ~seed ~rate ~budget:max_crashes ~gap ~backoff ())
    draw_point

(* {1 System-wide crashes}

   The failure model of Jayanti–Jayanti–Joshi (arXiv 2302.00748): every
   process loses its private state at one instant while NVRAM persists.  A
   system plan is consulted once per engine iteration, on the global step
   counter only, and therefore is always [Sensitive] — which step an
   iteration lands on depends on the whole interleaving. *)

let system_gate ~label gate : t =
  { Plan.none with label; system = (fun ~step -> Plan.fire gate ~step); por = Sensitive }

let system_random ~seed ~rate ~max_crashes () =
  system_gate
    ~label:(lazy (Printf.sprintf "system-random(rate=%g,max=%d)" rate max_crashes))
    (Plan.gate "Crash.system_random" ~salt:0x5b5c8a ~seed ~rate ~budget:max_crashes ())

let system_storm ~seed ~rate ~max_crashes ~gap ?(backoff = 1.0) () =
  system_gate
    ~label:
      (lazy
        (Printf.sprintf "system-storm(rate=%g,max=%d,gap=%d,backoff=%g)" rate max_crashes gap
           backoff))
    (Plan.gate "Crash.system_storm" ~salt:0x5b5702 ~seed ~rate ~budget:max_crashes ~gap ~backoff ())

type fired = {
  f_pid : int;
  f_op_index : int;
  f_step : int;
  f_point : point;
  f_async : bool;
}

(* One one-shot per entry, by the axis it was delivered on. *)
let replay_fired = function
  | [] -> none
  | fired ->
      let plan_of f =
        if not f.f_async then at_op ~pid:f.f_pid ~nth:f.f_op_index f.f_point
        else if f.f_pid < 0 then system_at ~step:f.f_step
        else async_at [ (f.f_step, f.f_pid) ]
      in
      {
        (all (List.map plan_of fired)) with
        label = lazy (Printf.sprintf "replay-fired(%d)" (List.length fired));
      }
