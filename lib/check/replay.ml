open Rme_sim

type report = { ops_replayed : int; divergence : string option }

let pp_report ppf r =
  Fmt.pf ppf "ops=%d %s" r.ops_replayed
    (match r.divergence with None -> "consistent" | Some d -> "DIVERGENT: " ^ d)

(* Replay the recorded instruction stream as a sequentially consistent
   history: reads must return the latest recorded post-write contents of
   their cell; any op's recorded post-value becomes the cell's current
   contents.  The first op seen on a cell establishes its value (the
   initialisation is not in the trace). *)
let verify (res : Engine.result) =
  let contents : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let ops = ref 0 in
  let divergence = ref None in
  List.iter
    (fun ev ->
      if !divergence = None then
        match ev with
        | Event.Op { step; pid; kind; cell; value } when cell <> "-" -> (
            incr ops;
            match Hashtbl.find_opt contents cell with
            | Some current when (kind = "read" || kind = "spin") && current <> value ->
                divergence :=
                  Some
                    (Printf.sprintf "step %d: p%d read %d from %s but the trace last wrote %d"
                       step pid value cell current)
            | _ -> Hashtbl.replace contents cell value)
        | Event.Op _ | Event.Note _ | Event.Crash _ | Event.Sys_crash _ -> ())
    res.Engine.events;
  { ops_replayed = !ops; divergence = !divergence }
