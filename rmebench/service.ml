(* Workload [service]: an open-loop lock service.

   Eight clients per engine run, each with a precomputed schedule of
   arrival steps (Poisson gaps, or bursts of [burst] with the same mean
   rate; per-client mean gap [gap] steps), over
   three registry locks.  Runs use [Engine.run ~mode:`Fast]: no crash or
   abort plan, a dropping event sink, nothing that would pull the engine
   off its fast path.  A request's latency is charged from its scheduled
   arrival to its release, so a stall shows as queueing delay on every
   later request instead of throttling the offered load. *)

open Rme_sim
open Tally

let locks = [ "wr"; "ba-jjj"; "dm-jjj" ]

let clients = 8

(* Per-client mean gap between arrivals, in engine steps, and the depth
   of a burst.  bin/service.ml uses 1600 and 8, which puts dm-jjj at the
   edge of saturation: its tail latency then depends on how long the run
   lasts and has no stable value (pooled p99 76k-130k steps over six
   seeds at 48k passages).  At 4800 every lock stays below saturation;
   4-deep bursts keep the pooled p999 within about 10% across seeds. *)
let gap = 4_800

let burst = 4

(* Requests per client and configuration in one chunk. *)
let requests = 300

let cs_yields = 2

type arrival = Poisson | Bursty

let arrival_name = function Poisson -> "poisson" | Bursty -> "bursty"

type config = {
  spec : Rme.Spec.t;
  arrival : arrival;
  dues : int array array;  (** per client, the scheduled arrival steps *)
  sched_seed : int;
  max_steps : int;
}

type t = { configs : config list; requests : int; warmup : int }
(** One chunk: every configuration once. *)

(* Per-client arrival steps.  Poisson draws exponential gaps of mean
   [gap]; bursty fires [burst] back-to-back arrivals separated by
   exponential lulls of mean [burst * gap]: the same mean load. *)
let arrivals ~rng ~arrival ~requests =
  let exp_gap mean =
    let u = Random.State.float rng 1.0 in
    max 1 (int_of_float (-.mean *. log (1.0 -. u)))
  in
  let dues = Array.make requests 0 in
  let t = ref (1 + Random.State.int rng gap) in
  for i = 0 to requests - 1 do
    (match arrival with
    | Poisson -> t := !t + exp_gap (float_of_int gap)
    | Bursty ->
        if i mod burst = 0 then t := !t + exp_gap (float_of_int (burst * gap)) else incr t);
    dues.(i) <- !t
  done;
  dues

let chunk_inputs ~seed ~chunk ~requests =
  let configs =
    List.concat
      (List.mapi
         (fun li key ->
           List.mapi
             (fun ai arrival ->
               let rng = Random.State.make [| seed; chunk; li; ai; 0x5e21 |] in
               let dues = Array.init clients (fun _ -> arrivals ~rng ~arrival ~requests) in
               let last = Array.fold_left (fun m d -> max m d.(requests - 1)) 0 dues in
               {
                 spec = Rme.Spec.find_exn key;
                 arrival;
                 dues;
                 sched_seed = Random.State.bits rng;
                 max_steps = last + (clients * requests * 300) + 1_000_000;
               })
             [ Poisson; Bursty ])
         locks)
  in
  { configs; requests; warmup = requests / 10 }

(* The client: wait for the due step (each [Api.step] poll is a free
   scheduling point), then one passage.  A request already overdue
   starts at once, so a backlog drains at full speed.  The first
   [warmup] requests are not measured. *)
let client_body ~dues ~warmup ~lat ~lag (lock : Harness.lock) ~pid =
  let dues = dues.(pid) in
  for i = 0 to Array.length dues - 1 do
    let due = Array.unsafe_get dues i in
    let rec pace () =
      let s = Api.step () in
      if s < due then begin
        Api.yield ();
        pace ()
      end
      else s
    in
    let start = pace () in
    Api.note (Event.Seg Event.Req_begin);
    lock.Harness.acquire ~pid;
    Api.note (Event.Seg Event.Cs_begin);
    for _ = 1 to cs_yields do
      Api.yield ()
    done;
    Api.note (Event.Seg Event.Cs_end);
    lock.Harness.release ~pid;
    Api.note (Event.Seg Event.Req_done);
    if i >= warmup then begin
      Hist.add lat (Api.step () - due);
      Hist.add lag (start - due)
    end
  done

(* One round over every (lock, arrival) configuration.  [on_op], given
   only by the traced run's counting pass, moves the engine to `Auto. *)
let round ?tr ?on_op (t : t) =
  let sim = acc () in
  let by_lock = List.map (fun key -> (key, acc ())) locks in
  let lags = Hist.create () in
  let attempted = ref 0 and failed = ref 0 and failures = ref [] in
  let buf = Buffer.create 65536 in
  List.iter
    (fun c ->
      let key = c.spec.Rme.Spec.key in
      let lat = Hist.create () and lag = Hist.create () in
      let mode = match on_op with None -> `Fast | Some _ -> `Auto in
      let res =
        Span.wrap tr "engine" key (fun () ->
            Engine.run ~mode ?on_op ~max_steps:c.max_steps ~n:clients ~model:Memory.CC
              ~sched:(Sched.random ~seed:c.sched_seed) ~crash:Crash.none
              ~setup:(Span.wrap_fn tr "locks.setup" key c.spec.Rme.Spec.make)
              ~body:(client_body ~dues:c.dues ~warmup:t.warmup ~lat ~lag)
              ())
      in
      let offered = clients * t.requests in
      let completed = Engine.total_completed res in
      attempted := !attempted + offered;
      if completed < offered then begin
        failed := !failed + (offered - completed);
        failures :=
          Fmt.str "service %s/%s: %d of %d requests unsatisfied (%s)" key
            (arrival_name c.arrival) (offered - completed) offered
            (match res.Engine.stall with
            | Some s -> Fmt.str "%a" Engine.pp_stall s
            | None -> "no stall verdict")
          :: !failures
      end;
      let a = acc () in
      absorb ~latency:false a res;
      Hist.merge ~into:a.lat lat;
      Hist.merge ~into:lags lag;
      Printf.bprintf buf "%s/%s offered=%d lag=" key (arrival_name c.arrival) offered;
      Hist.feed buf lag;
      feed buf a;
      merge ~into:(List.assoc key by_lock) a;
      merge ~into:sim a)
    t.configs;
  {
    attempted = !attempted;
    failed = !failed;
    failures = List.rev !failures;
    problems = [];
    sim;
    locks = by_lock;
    counts =
      [ ("arrivals.start_lag_p99_steps", float_of_int (Hist.percentile lags 0.99)) ];
    digest = Digest.to_hex (Digest.string (Buffer.contents buf));
  }

let prepare ~seed ~chunks =
  let inputs = Array.init chunks (fun chunk -> chunk_inputs ~seed ~chunk ~requests) in
  (* The warm-up draws no input from [seed], so set-up does the same work
     under every seed. *)
  ignore (round (chunk_inputs ~seed:0 ~chunk:(-1) ~requests:20));
  {
    Workload.chunk = (fun ?tr i -> round ?tr inputs.(i));
    count_ops =
      (fun ops -> ignore (round ~on_op:(fun info -> ops info.Crash.kind) inputs.(0)));
    same_inputs = false;
  }
