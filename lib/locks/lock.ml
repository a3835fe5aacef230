open Rme_sim

type t = Harness.lock = {
  name : string;
  acquire : pid:int -> unit;
  release : pid:int -> unit;
  try_abort : (pid:int -> Harness.abort_outcome) option;
}

type maker = Engine.Ctx.t -> t

let instrument ~id ~name ?try_abort ~acquire ~release () =
  {
    name;
    acquire =
      (fun ~pid ->
        Api.note (Event.Lock_enter id);
        acquire ~pid;
        Api.note (Event.Lock_acquired id));
    release =
      (fun ~pid ->
        Api.note (Event.Lock_release id);
        release ~pid;
        Api.note (Event.Lock_released id));
    try_abort =
      Option.map
        (fun inner ~pid ->
          Api.note (Event.Abort_request id);
          match (inner ~pid : Harness.abort_outcome) with
          | Harness.Aborted ->
              Api.note (Event.Abort_done id);
              Harness.Aborted
          | Harness.Acquired_instead ->
              Api.note (Event.Abort_lost_race id);
              Harness.Acquired_instead
          | Harness.Not_supported ->
              (* No protocol ran: the request proceeds as if never aborted;
                 the signal resolves at [Lock_acquired]. *)
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
