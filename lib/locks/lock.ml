open Rme_sim

type t = Harness.lock = {
  name : string;
  acquire : pid:int -> unit;
  release : pid:int -> unit;
  try_abort : (pid:int -> Harness.abort_outcome) option;
}

type maker = Engine.Ctx.t -> t

type milestones = {
  m_enter : Event.note;
  m_acquired : Event.note;
  m_release : Event.note;
  m_released : Event.note;
}

let milestones id =
  {
    m_enter = Event.Lock_enter id;
    m_acquired = Event.Lock_acquired id;
    m_release = Event.Lock_release id;
    m_released = Event.Lock_released id;
  }

let instrument ~id ~name ?try_abort ~acquire ~release () =
  let m = milestones id in
  {
    name;
    acquire =
      (fun ~pid ->
        Api.note m.m_enter;
        acquire ~pid;
        Api.note m.m_acquired);
    release =
      (fun ~pid ->
        Api.note m.m_release;
        release ~pid;
        Api.note m.m_released);
    try_abort =
      Option.map
        (fun inner ->
          let request = Event.Abort_request id
          and aborted = Event.Abort_done id
          and lost_race = Event.Abort_lost_race id in
          fun ~pid ->
            Api.note request;
            match (inner ~pid : Harness.abort_outcome) with
            | Harness.Aborted ->
                Api.note aborted;
                Harness.Aborted
            | Harness.Acquired_instead ->
                Api.note lost_race;
                Harness.Acquired_instead
            | Harness.Not_supported ->
                (* No protocol ran: the request proceeds as if never
                   aborted; the signal resolves at [Lock_acquired]. *)
                Harness.Not_supported)
        try_abort;
  }

(* Every registry lock goes through the abort-conformance matrix; legacy
   locks advertise [Not_supported] so the matrix can tell "no abort path"
   from "abort path missing by mistake".  Their [acquire] never raises
   [Api.Abort_signal], so the port is never actually called by the
   harness — it exists for direct probing. *)
let abortable t =
  match t.try_abort with
  | Some _ -> t
  | None -> { t with try_abort = Some (fun ~pid:_ -> Harness.Not_supported) }

type side = Left | Right

let side_index = function Left -> 0 | Right -> 1

type dual = {
  dual_name : string;
  dual_acquire : side -> pid:int -> unit;
  dual_release : side -> pid:int -> unit;
}
