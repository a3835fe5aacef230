(* Workload [verify]: exhaustive model checking of mutual exclusion and
   deadlock freedom.

   Source-set DPOR ([`Source]) runs to exhaustion on the n=2 SA, BA and
   DM stacks and on WR-Lock through [Explore.explore]; one subject also
   goes through [Explore.explore_parallel ~domains:1], whose checkpointed
   subtree restarts ([Engine.run_resumable], [Engine.Snap]) cost
   differently per run.  The WR FAS-gap subject must find its known
   violation, so the workload cannot get faster by missing bugs.  No
   subject has a random input: every round, under every seed, explores
   the same trees. *)

open Rme_sim
open Tally
module Explore = Rme_check.Explore

type entry = Sequential | Parallel

type subject = {
  name : string;
  lock : string;
  entry : entry;
  expect_violation : bool;
  n : int;
  max_steps : int;
  crash : unit -> Crash.t;
  make : Engine.Ctx.t -> Harness.lock * Cell.t option;
      (** the lock, and the gate cell of a staged scenario *)
  body : Harness.lock * Cell.t option -> pid:int -> unit;
}

let max_runs = 400_000

let me_check res =
  if res.Engine.cs_max > 1 then Some "ME violation"
  else if res.Engine.deadlocked then Some "deadlock"
  else None

(* One request per process over a registry lock. *)
let me_n2 ?(entry = Sequential) key =
  let spec = Rme.Spec.find_exn key in
  {
    name = (key ^ "-me-n2" ^ match entry with Sequential -> "" | Parallel -> "-par");
    lock = key;
    entry;
    expect_violation = false;
    n = 2;
    max_steps = 20_000;
    crash = (fun () -> Crash.none);
    make = (fun ctx -> (spec.Rme.Spec.make ctx, None));
    body = (fun (lock, _) ~pid -> Harness.standard_body ~lock ~requests:1 pid);
  }

(* WR-Lock at n=3 around the unsafe FAS gap (the paper's Figure 1), as
   staged in test/test_explore.ml: p0 holds a gate that parks p1 in its
   critical section while p2 crashes right after its FAS — an ME
   violation the explorer must find. *)
let wr_gap =
  let spec = Rme.Spec.find_exn "wr" in
  {
    name = "wr-gap-me-n3";
    lock = "wr";
    entry = Sequential;
    expect_violation = true;
    n = 3;
    max_steps = 4_000;
    crash = (fun () -> Crash.on_kind ~pid:2 ~kind:Api.Fas ~occurrence:0 Crash.After);
    make =
      (fun ctx ->
        let gate = Memory.alloc (Engine.Ctx.memory ctx) ~name:"gate" 0 in
        (spec.Rme.Spec.make ctx, Some gate));
    body =
      (fun (lock, gate) ~pid ->
        let gate = Option.get gate in
        if pid = 0 then begin
          for _ = 1 to 3 do
            Api.yield ()
          done;
          Api.write gate 1
        end
        else
          let cs ~pid = if pid = 1 then Api.spin_until gate (Api.Eq 1) in
          Harness.standard_body ~cs ~lock ~requests:1 pid);
  }

let subjects =
  [
    me_n2 "sa-jjj";
    me_n2 "ba-jjj";
    me_n2 "dm-jjj";
    me_n2 "wr";
    me_n2 ~entry:Parallel "wr";
    wr_gap;
  ]

(* Runs [f] with every shared-memory instruction it performs tallied by
   kind, then forwarded unchanged to the engine — the explorer takes no
   [?on_op] hook, so the counting pass observes the bodies instead. *)
let counting (ops : Api.kind -> unit) f =
  Effect.Deep.match_with f ()
    {
      retc = Fun.id;
      exnc = raise;
      effc =
        (fun (type b) (e : b Effect.t) ->
          match e with
          | Api.Instr v ->
              Some
                (fun (k : (b, _) Effect.Deep.continuation) ->
                  ops (Api.kind_of_view v);
                  match Effect.perform e with
                  | r -> Effect.Deep.continue k r
                  | exception ex -> Effect.Deep.discontinue k ex)
          | _ -> None);
    }

let search ?tr ?ops s ~check ~stats =
  let setup = Span.wrap_fn tr "locks.setup" s.lock s.make in
  let body =
    match ops with
    | None -> s.body
    | Some ops -> fun shared ~pid -> counting ops (fun () -> s.body shared ~pid)
  in
  let crash = s.crash and n = s.n and max_steps = s.max_steps and model = Memory.CC in
  Span.wrap tr "explore" s.lock (fun () ->
      match s.entry with
      | Sequential ->
          Explore.explore ~por:`Source ~max_runs ~max_steps ~shrink_violations:s.expect_violation
            ~stats ~n ~model ~crash ~setup ~body ~check ()
      | Parallel ->
          Explore.explore_parallel ~domains:1 ~por:`Source ~max_runs ~max_steps
            ~shrink_violations:s.expect_violation ~stats ~n ~model ~crash ~setup ~body ~check ())

let verdict (o : Explore.outcome) = (o.Explore.exhausted, o.Explore.violation <> None)

let round ?tr ?ops (t : subject list) =
  let sim = acc () in
  let by_lock = Hashtbl.create 8 in
  let failed = ref 0 and failures = ref [] and problems = ref [] in
  let runs = ref 0 and steps = ref 0 and hits = ref 0 and misses = ref 0 and evictions = ref 0 in
  let outcomes = ref [] in
  let counts = ref [] in
  let buf = Buffer.create 65536 in
  List.iter
    (fun s ->
      let a = acc () in
      let check res =
        Span.wrap tr "bench.tally" s.lock (fun () -> absorb a res);
        Span.wrap tr "explore.check" s.lock (fun () -> me_check res)
      in
      let stats = ref None in
      let o = search ?tr ?ops s ~check ~stats:(fun st -> stats := Some st) in
      let st = Option.get !stats in
      runs := !runs + st.Explore.engine_runs;
      steps := !steps + st.Explore.engine_steps;
      hits := !hits + st.Explore.cache_hits;
      misses := !misses + st.Explore.cache_misses;
      evictions := !evictions + st.Explore.cache_evictions;
      let ok =
        if s.expect_violation then o.Explore.violation <> None
        else o.Explore.exhausted && o.Explore.violation = None
      in
      if not ok then begin
        incr failed;
        failures :=
          Fmt.str "verify %s: %a (expected %s)" s.name Explore.pp_outcome o
            (if s.expect_violation then "a violation" else "clean exhaustion")
          :: !failures
      end;
      (* Both entry points must reach the same verdict on one subject. *)
      (match s.entry with
      | Sequential -> outcomes := (s.name, o) :: !outcomes
      | Parallel -> (
          match List.assoc_opt (Filename.chop_suffix s.name "-par") !outcomes with
          | Some o' when verdict o <> verdict o' ->
              problems :=
                Fmt.str "verify %s: sequential and parallel verdicts differ" s.name :: !problems
          | Some _ | None -> ()));
      counts := (Printf.sprintf "explore.%s.runs" s.name, float_of_int o.Explore.runs) :: !counts;
      Printf.bprintf buf "%s %s %s\n" s.name
        (Fmt.str "%a" Explore.pp_outcome o)
        (Fmt.str "%a" Explore.pp_search_stats st);
      feed buf a;
      (match Hashtbl.find_opt by_lock s.lock with
      | Some l -> merge ~into:l a
      | None -> Hashtbl.replace by_lock s.lock a);
      merge ~into:sim a)
    t;
  {
    attempted = List.length t;
    failed = !failed;
    failures = List.rev !failures;
    problems = List.rev !problems;
    sim;
    locks = List.of_seq (Hashtbl.to_seq by_lock);
    counts =
      ("engine.runs", float_of_int !runs)
      :: ("engine.steps", float_of_int !steps)
      :: ("explore.steps_per_run", float_of_int !steps /. float_of_int (max 1 !runs))
      :: ("statecache.hits", float_of_int !hits)
      :: ("statecache.misses", float_of_int !misses)
      :: ("statecache.evictions", float_of_int !evictions)
      :: ( "statecache.hit_ratio",
           float_of_int !hits /. float_of_int (max 1 (!hits + !misses)) )
      :: List.rev !counts;
    digest = Digest.to_hex (Digest.string (Buffer.contents buf));
  }

let prepare ~seed:_ ~chunks:_ =
  ignore (round [ me_n2 "wr" ]);
  {
    Workload.chunk = (fun ?tr _ -> round ?tr subjects);
    count_ops = (fun ops -> ignore (round ~ops subjects));
    same_inputs = true;
  }
