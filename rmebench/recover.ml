(* Workload [recover]: a crash/abort recovery campaign.

   Seeded adversarial runs through [Chaos.run_one], each judged by
   [Chaos.battery] (the weak interval form of ME for weakly recoverable
   locks such as wr), for every lock x adversary pair:
   wr, ba-jjj, dm-jjj and jjj-sys against the standard per-process
   adversaries and the system-wide storm, and wr-abort and tas-abort
   against the impatient storm.  This is the instrumented engine: a
   [Keep] sink, per-instruction crash and abort consults, the locks'
   recovery paths.  A battery violation is a counted failure, never an
   abort of the benchmark. *)

open Rme_sim
open Tally
module Chaos = Rme_check.Chaos

let cfg = Chaos.default_cfg

let case_of key =
  let spec = Rme.Spec.find_exn key in
  {
    Chaos.case_name = key;
    case_make = spec.Rme.Spec.make;
    case_weak = spec.Rme.Spec.expectation.Rme.Spec.recoverability = `Weak;
    case_ff_bound = Option.map (fun f -> f cfg.Chaos.n) spec.Rme.Spec.ff_bound;
    case_abortable = spec.Rme.Spec.abortable;
  }

let pairs =
  List.concat_map
    (fun key ->
      List.map (fun adv -> (key, adv)) (Chaos.standard_adversaries @ [ Chaos.default_sys_storm ]))
    [ "wr"; "ba-jjj"; "dm-jjj"; "jjj-sys" ]
  @ List.map (fun key -> (key, Chaos.default_impatient_storm)) [ "wr-abort"; "tas-abort" ]

(* Seeds chunk 0 runs whatever the workload seed: known deadlocks, each
   replay-confirmed with [soak --adversary ADV --lock LOCK --runs 1
   --seed SEED].  jjj-sys under the per-process holder adversary at seed
   10 (p1-p3 park at jjj-sys.grant), jjj-sys under the system-wide storm,
   and dm-jjj under both (every pid parks at dm-jjj.door.grant).  They
   stay in the campaign, and counted, until the locks are fixed. *)
let pinned =
  [
    ("jjj-sys", "holder", 10);
    ("jjj-sys", "sys-storm", 964897549);
    ("dm-jjj", "holder", 622522381);
    ("dm-jjj", "sys-storm", 115098042);
  ]

type run = { case : Chaos.case; adv : Chaos.adversary; seed : int }

let adv_name adv = List.hd (String.split_on_char '(' (Fmt.str "%a" Chaos.pp_adversary adv))

(* Seeded runs per pair in one chunk. *)
let per_pair = 200

let chunk_inputs ~seed ~chunk ~per_pair =
  Array.of_list
    (List.concat
       (List.mapi
          (fun pi (key, adv) ->
            let rng = Random.State.make [| seed; chunk; pi; 0xc4a05 |] in
            let fresh = List.init per_pair (fun _ -> Random.State.bits rng) in
            let pin =
              List.filter_map
                (fun (k, a, seed) -> if chunk = 0 && k = key && a = adv_name adv then Some seed else None)
                pinned
            in
            let case = case_of key in
            List.map (fun seed -> { case; adv; seed }) (pin @ fresh))
          pairs))

let first_injection (r : Chaos.run) =
  match (r.Chaos.fired, r.Chaos.ab_fired) with
  | [], [] -> None
  | f :: _, [] -> Some f.Crash.f_step
  | [], a :: _ -> Some a.Abort.a_step
  | f :: _, a :: _ -> Some (min f.Crash.f_step a.Abort.a_step)

let round ?tr t =
  let sim = acc () in
  let by_lock = Hashtbl.create 8 in
  let failed = ref 0 and failures = ref [] in
  let fired = ref 0 and ab_fired = ref 0 and events = ref 0 in
  let detect = ref 0 and detect_runs = ref 0 in
  let buf = Buffer.create (1 lsl 20) in
  Array.iter
    (fun r ->
      let key = r.case.Chaos.case_name in
      let make = Span.wrap_fn tr "locks.setup" key r.case.Chaos.case_make in
      let run =
        Span.wrap tr "chaos.run_one" key (fun () ->
            Chaos.run_one cfg ~make ~adversary:r.adv ~seed:r.seed)
      in
      let problems =
        Span.wrap tr "props.battery" key (fun () ->
            Chaos.battery r.case ~requests:cfg.Chaos.requests run.Chaos.res)
      in
      Span.wrap tr "bench.tally" key (fun () ->
          if problems <> [] then begin
            incr failed;
            failures :=
              Printf.sprintf "recover %s/%s seed %d: %s" key (adv_name r.adv) r.seed
                (String.concat "; " problems)
              :: !failures
          end;
          let a =
            match Hashtbl.find_opt by_lock key with
            | Some a -> a
            | None ->
                let a = acc () in
                Hashtbl.replace by_lock key a;
                a
          in
          absorb a run.Chaos.res;
          absorb sim run.Chaos.res;
          fired := !fired + List.length run.Chaos.fired;
          ab_fired := !ab_fired + List.length run.Chaos.ab_fired;
          events := !events + List.length run.Chaos.res.Engine.events;
          (match first_injection run with
          | Some s ->
              detect := !detect + (run.Chaos.res.Engine.steps - s);
              incr detect_runs
          | None -> ());
          Printf.bprintf buf "%s %s %d steps=%d rmr=%d done=%d [%s] [%s] [%s]\n" key
            (adv_name r.adv) r.seed run.Chaos.res.Engine.steps run.Chaos.res.Engine.total_rmr
            (Engine.total_completed run.Chaos.res)
            (String.concat " " (List.map (Fmt.str "%a" Chaos.pp_fired) run.Chaos.fired))
            (String.concat " " (List.map (Fmt.str "%a" Chaos.pp_ab_fired) run.Chaos.ab_fired))
            (String.concat "; " problems)))
    t;
  let runs = float_of_int (max 1 (Array.length t)) in
  feed buf sim;
  {
    attempted = Array.length t;
    failed = !failed;
    failures = List.rev !failures;
    problems = [];
    sim;
    locks = List.of_seq (Hashtbl.to_seq by_lock);
    counts =
      [
        ("crash.fired_per_run", float_of_int !fired /. runs);
        ("abort.fired_per_run", float_of_int !ab_fired /. runs);
        ("event.emitted_per_run", float_of_int !events /. runs);
        ("chaos.crashes", float_of_int !fired);
        ("chaos.detect_latency_steps", float_of_int !detect /. float_of_int (max 1 !detect_runs));
      ];
    digest = Digest.to_hex (Digest.string (Buffer.contents buf));
  }

(* The counting pass: each run of the round again, through [Engine.run]
   with the same lock, scheduler seed and plans as [Chaos.run_one] plus an
   [?on_op] hook — [run_one] takes none. *)
let count_ops t (ops : Api.kind -> unit) =
  Array.iter
    (fun r ->
      let cs ~pid:_ =
        for _ = 1 to cfg.Chaos.cs_yields do
          Api.yield ()
        done
      in
      ignore
        (Engine.run ~record:true ~max_steps:cfg.Chaos.max_steps
           ~on_op:(fun info -> ops info.Crash.kind)
           ~abort:(Chaos.abort_plan r.adv ~seed:r.seed)
           ~n:cfg.Chaos.n ~model:cfg.Chaos.model ~sched:(Sched.random ~seed:r.seed)
           ~crash:(Chaos.plan r.adv ~seed:r.seed) ~setup:r.case.Chaos.case_make
           ~body:(fun lock ~pid -> Harness.standard_body ~cs ~lock ~requests:cfg.Chaos.requests pid)
           ()))
    t

let prepare ~seed ~chunks =
  let inputs = Array.init chunks (fun chunk -> chunk_inputs ~seed ~chunk ~per_pair) in
  (* As in Service.prepare, the warm-up draws no input from [seed]. *)
  ignore (round (chunk_inputs ~seed:0 ~chunk:(-1) ~per_pair:1));
  {
    Workload.chunk = (fun ?tr i -> round ?tr inputs.(i));
    count_ops = (fun ops -> count_ops inputs.(0) ops);
    same_inputs = false;
  }
