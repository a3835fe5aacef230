(* Tests for the engine hot-path overhaul and its measurement plumbing:
   Vec edge cases, event sinks (ring wrap-around, policy equivalence),
   the Api.step clock, the `Fast/`Full differential contract, and the
   explorer's search-effort counters. *)

open Rme_sim

let check = Alcotest.check

let ci = Alcotest.int

let cb = Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Vec edge cases                                                      *)
(* ------------------------------------------------------------------ *)

let test_vec_push_through_growth () =
  (* Push across several doubling boundaries and verify every element
     lands where it should, including the pushes at exact capacity. *)
  let v = Vec.create () in
  for i = 0 to 1000 do
    Vec.push v i;
    check ci "length tracks pushes" (i + 1) (Vec.length v);
    check ci "last is the push" i (Vec.last v)
  done;
  for i = 0 to 1000 do
    check ci "element survived growth" i (Vec.get v i)
  done

let test_vec_unsafe_get_after_resize () =
  let v = Vec.create () in
  for i = 0 to 300 do
    Vec.push v (i * 7)
  done;
  (* unsafe_get must agree with get on every valid index even after the
     backing array has been reallocated several times. *)
  for i = 0 to 300 do
    check ci "unsafe_get = get" (Vec.get v i) (Vec.unsafe_get v i)
  done;
  Vec.clear v;
  check ci "clear empties" 0 (Vec.length v);
  Vec.push v 42;
  check ci "push after clear" 42 (Vec.get v 0)

(* ------------------------------------------------------------------ *)
(* Event sinks                                                         *)
(* ------------------------------------------------------------------ *)

let note_at step = Event.Note { step; pid = 0; super = 0; note = Event.Seg Event.Req_begin }

let test_sink_drop () =
  let s = Event.Sink.drop in
  check cb "drop wants nothing" false (Event.Sink.wants s);
  Event.Sink.emit s (note_at 1);
  check ci "nothing counted" 0 (Event.Sink.emitted s);
  check cb "no events retained" true (Event.Sink.events s = [])

let test_sink_ring_wraparound () =
  let s = Event.Sink.ring ~capacity:4 in
  check cb "ring wants events" true (Event.Sink.wants s);
  for i = 1 to 10 do
    Event.Sink.emit s (note_at i)
  done;
  check ci "all emissions counted" 10 (Event.Sink.emitted s);
  let steps = List.map Event.step (Event.Sink.events s) in
  check cb "trailing window in order" true (steps = [ 7; 8; 9; 10 ]);
  Event.Sink.clear s;
  check ci "clear resets" 0 (Event.Sink.emitted s);
  check cb "clear empties" true (Event.Sink.events s = []);
  (* Partial fill: no wrap yet, events come back in emission order. *)
  Event.Sink.emit s (note_at 1);
  Event.Sink.emit s (note_at 2);
  check cb "partial window" true (List.map Event.step (Event.Sink.events s) = [ 1; 2 ])

(* ------------------------------------------------------------------ *)
(* Engine: sink policies and the fast-path differential                 *)
(* ------------------------------------------------------------------ *)

let lock_workload ?mode ?sink ?record ?trace_ops ?on_op ?abort ?(setup = Rme_locks.Wr_lock.make)
    ?cs ?ncs () =
  let body lock ~pid = Harness.standard_body ?cs ?ncs ~lock ~requests:3 pid in
  Engine.run ?mode ?sink ?record ?trace_ops ?on_op ?abort ~n:3 ~model:Memory.CC
    ~sched:(Sched.random ~seed:42)
    ~crash:Crash.none ~setup ~body ()

let test_keep_vs_drop_equivalence () =
  (* The sink policy must never change what happens — only what is
     retained.  Same schedule, all result fields equal except [events]. *)
  let kept = lock_workload ~sink:(Event.Sink.keep ()) () in
  let dropped = lock_workload ~sink:Event.Sink.drop () in
  check cb "keep retains history" true (kept.Engine.events <> []);
  check cb "drop retains nothing" true (dropped.Engine.events = []);
  check cb "all other fields equal" true
    ({ kept with Engine.events = [] } = dropped)

let test_ring_is_keep_suffix () =
  let kept = lock_workload ~sink:(Event.Sink.keep ()) () in
  let ring = Event.Sink.ring ~capacity:8 in
  let ringed = lock_workload ~sink:ring () in
  let suffix l n =
    let len = List.length l in
    List.filteri (fun i _ -> i >= len - n) l
  in
  check cb "ring = trailing window of keep" true
    (ringed.Engine.events = suffix kept.Engine.events 8);
  check cb "same results otherwise" true
    ({ kept with Engine.events = [] } = { ringed with Engine.events = [] })

(* The open-loop pacing idiom (see [test_open_loop_pacing]): before each
   request the client polls the clock until its due step, so the answers
   to [Api.step] shape the schedule.  The 400-step gap is longer than a
   passage, so clients really sit in the polling loop. *)
let paced_ncs ~pid =
  let due = (pid * 7) + (400 * Api.completed_requests ()) in
  while Api.step () < due do
    Api.yield ()
  done

(* A CS that polls the abort flag: with the paced NCS (which reads
   [Api.step] and [Api.completed_requests] and yields) a body uses every
   argument-free instruction. *)
let polling_cs ~pid:_ =
  ignore (Api.poll_abort ());
  Api.yield ()

let wr_abort = (Rme.Spec.find_exn "wr-abort").Rme.Spec.make

(* Impatient waiters in wr-abort, which polls the flag after each
   abortable spin of its entry section. *)
let impatient () = Abort.impatient ~timeout_steps:3 ()

(* The argument-free instructions a run executed, counted twice: by the
   [Op] events of a [~trace_ops] run and by an [?on_op] hook on a second
   run of the same schedule.  [workload] takes the two options. *)
let nop_counts (workload : trace_ops:bool -> on_op:(Crash.op_info -> unit) option -> Engine.result)
    =
  let traced = workload ~trace_ops:true ~on_op:None in
  let traced_nops =
    List.length
      (List.filter
         (function Event.Op { kind = "nop"; _ } -> true | _ -> false)
         traced.Engine.events)
  in
  let seen = ref 0 in
  let hooked =
    workload ~trace_ops:false
      ~on_op:(Some (fun (info : Crash.op_info) -> if info.kind = Api.Nop then incr seen))
  in
  (traced, traced_nops, hooked, !seen)

let test_fast_full_differential () =
  (* The tentpole contract: `Fast elides bookkeeping, never semantics.
     Every field of the result — steps, RMRs by kind, per-process
     passages with their latencies, lock stats, cs_max — must be
     byte-identical across `Fast, `Auto and `Full on the same schedule,
     for closed-loop clients, for paced clients polling Api.step, and for
     a body that uses every argument-free instruction. *)
  List.iter
    (fun (name, cs, ncs) ->
      let run mode = lock_workload ~mode ?cs ?ncs () in
      let fast = run `Fast and auto = run `Auto and full = run `Full in
      check cb (name ^ ": fast = auto") true (fast = auto);
      check cb (name ^ ": fast = full") true (fast = full);
      check cb (name ^ ": work happened") true
        (fast.Engine.steps > 0 && fast.Engine.total_rmr > 0))
    [
      ("closed-loop", None, None);
      ("paced", None, Some paced_ncs);
      ("argument-free", Some polling_cs, Some paced_ncs);
    ];
  (* The paced clients really waited: the last request of pid 2 is due at
     step 2*7 + 400*2, over twice the closed-loop run's length. *)
  check cb "paced: last due step reached" true
    ((lock_workload ~mode:`Fast ~ncs:paced_ncs ()).Engine.steps >= 814);
  (* Under an abort plan `Fast is refused, so `Auto and `Full are held to
     each other: abort signals are delivered and answered by the polls. *)
  let run mode =
    lock_workload ~mode ~abort:(impatient ()) ~setup:wr_abort ~cs:polling_cs ~ncs:paced_ncs ()
  in
  let auto = run `Auto and full = run `Full in
  check cb "poll_abort under aborts: auto = full" true (auto = full);
  check cb "poll_abort under aborts: signals delivered" true (auto.Engine.aborts <> []);
  check ci "poll_abort under aborts: every request satisfied" 9 (Engine.total_completed auto);
  (* Every argument-free instruction is traced: one [Op] event of kind
     nop each, as many as the hook sees, with and without the abort plan.
     The bare loop's count is known: 4 instructions x 50 x 3 processes. *)
  let bare ~trace_ops ~on_op =
    Engine.run ~trace_ops ?on_op ~n:3 ~model:Memory.CC ~sched:(Sched.random ~seed:42)
      ~crash:Crash.none
      ~setup:(fun _ -> ())
      ~body:(fun () ~pid:_ ->
        for _ = 1 to 50 do
          ignore (Api.step ());
          Api.yield ();
          ignore (Api.completed_requests ());
          ignore (Api.poll_abort ())
        done)
      ()
  in
  List.iter
    (fun (name, workload, expected) ->
      let traced, traced_nops, hooked, hooked_nops = nop_counts workload in
      check ci (name ^ ": same steps traced and hooked") traced.Engine.steps hooked.Engine.steps;
      check ci (name ^ ": one nop event per argument-free instruction") hooked_nops traced_nops;
      match expected with
      | Some k -> check ci (name ^ ": nop count") k traced_nops
      | None -> check cb (name ^ ": some nops") true (traced_nops > 0))
    [
      ("bare loop", bare, Some 600);
      ( "paced",
        (fun ~trace_ops ~on_op -> lock_workload ~trace_ops ?on_op ~cs:polling_cs ~ncs:paced_ncs ()),
        None );
      ( "paced under aborts",
        (fun ~trace_ops ~on_op ->
          lock_workload ~trace_ops ?on_op ~abort:(impatient ()) ~setup:wr_abort ~cs:polling_cs
            ~ncs:paced_ncs ()),
        None );
    ]

let test_fast_rejects_instrumented_configs () =
  let crashy () =
    ignore
      (Engine.run ~mode:`Fast ~n:2 ~model:Memory.CC
         ~sched:(Sched.round_robin ())
         ~crash:(Crash.random ~seed:0 ~rate:1.0 ~max_crashes:1 ())
         ~setup:(fun ctx -> Memory.alloc (Engine.Ctx.memory ctx) ~name:"c" 0)
         ~body:(fun c ~pid:_ -> Api.write c 1)
         ())
  in
  let sinky () =
    ignore
      (Engine.run ~mode:`Fast
         ~sink:(Event.Sink.keep ())
         ~n:2 ~model:Memory.CC
         ~sched:(Sched.round_robin ())
         ~crash:Crash.none
         ~setup:(fun ctx -> Memory.alloc (Engine.Ctx.memory ctx) ~name:"c" 0)
         ~body:(fun c ~pid:_ -> Api.write c 1)
         ())
  in
  let raises f =
    match f () with exception Invalid_argument _ -> true | _ -> false
  in
  check cb "crash plan rejected" true (raises crashy);
  check cb "event sink rejected" true (raises sinky)

let test_api_step_monotone () =
  (* Api.step is the global simulated clock: non-decreasing within a
     process, strictly increasing across its own observations (each
     observation is itself a step), and consistent with the final
     result. *)
  let seen = ref [] in
  let res =
    Engine.run ~n:2 ~model:Memory.CC
      ~sched:(Sched.random ~seed:7)
      ~crash:Crash.none
      ~setup:(fun ctx -> Memory.alloc (Engine.Ctx.memory ctx) ~name:"c" 0)
      ~body:(fun c ~pid ->
        for _ = 1 to 5 do
          let s = Api.step () in
          if pid = 0 then seen := s :: !seen;
          Api.write c s;
          Api.yield ()
        done)
      ()
  in
  let obs = List.rev !seen in
  check cb "observed some steps" true (List.length obs = 5);
  check cb "strictly increasing" true
    (List.for_all2 (fun a b -> a < b) (List.filteri (fun i _ -> i < 4) obs) (List.tl obs));
  check cb "bounded by the run" true (List.for_all (fun s -> s <= res.Engine.steps) obs)

let test_open_loop_pacing () =
  (* The open-loop pacing idiom: a client polling the clock wakes
     at-or-after its due step, never before. *)
  let due = 40 in
  let woke = ref (-1) in
  ignore
    (Engine.run ~n:2 ~model:Memory.CC
       ~sched:(Sched.round_robin ())
       ~crash:Crash.none
       ~setup:(fun ctx -> Memory.alloc (Engine.Ctx.memory ctx) ~name:"c" 0)
       ~body:(fun c ~pid ->
         if pid = 0 then begin
           while Api.step () < due do
             Api.yield ()
           done;
           woke := Api.step ();
           Api.write c 1
         end
         else for _ = 1 to 30 do Api.yield () done)
       ());
  check cb "woke at or after due" true (!woke >= due)

(* Minor words one fast-path step allocates: 8 bodies each loop 100k times
   over one instruction under the allocation-free random scheduler, so the
   effect boundary dominates.  A suspension costs only the runtime
   continuation (2 words): the engine files it in a per-pid slot and the
   handler returns an immediate tag, and the instructions below carry
   their operands in the domain's register, not in a per-call view.  [plans]
   builds the run's crash and abort plans; with either one the run takes
   the instrumented path, which consults both on every instruction. *)
let words_per_step ?(plans = fun () -> (Crash.none, Abort.none)) instr =
  let n = 8 and iters = 100_000 in
  let crash, abort = plans () in
  let mode = if crash == Crash.none && abort == Abort.none then `Fast else `Auto in
  let w0 = Gc.minor_words () in
  let res =
    Engine.run ~mode ~abort ~n ~model:Memory.CC ~sched:(Sched.random ~seed:3) ~crash
      ~setup:(fun ctx -> Memory.alloc (Engine.Ctx.memory ctx) ~name:"c" 0)
      ~body:(fun c ~pid:_ ->
        for _ = 1 to iters do
          instr c
        done)
      ()
  in
  let words = Gc.minor_words () -. w0 in
  check ci "one dispatch plus one step per instruction" (n * (iters + 1)) res.Engine.steps;
  words /. float_of_int res.Engine.steps

(* Reports every pin, not just the first that fails. *)
let pins_hold pins =
  List.iter (fun (msg, ok) -> if not ok then Printf.printf "FAIL %s\n" msg) pins;
  check cb (String.concat "; " (List.map fst pins)) true (List.for_all snd pins)

let test_step_allocation () =
  (* Every figure is 2 on OCaml 5.1; the pins leave one word of headroom
     for other 5.x runtimes. *)
  pins_hold
    (List.map
       (fun (name, bound, instr) ->
         let w = words_per_step instr in
         ( Printf.sprintf "%s: %.2f minor words per step <= %d" name w bound,
           w <= float_of_int bound ))
       [
         ("yield", 3, fun _ -> Api.yield ());
         ("step", 3, fun _ -> ignore (Api.step ()));
         ("read", 3, fun c -> ignore (Api.read c));
         ("write", 3, fun c -> Api.write c 1);
         ("cas", 3, fun c -> ignore (Api.cas c ~expect:0 ~value:1));
         ("fas", 3, fun c -> ignore (Api.fas c 1));
         ("faa", 3, fun c -> ignore (Api.faa c 1));
         ("note", 3, fun _ -> Api.note (Event.Seg Event.Cs_begin));
         ("spin_until", 3, fun c -> Api.spin_until c (Api.Eq 0));
         ("spin_abortable", 3, fun c -> Api.spin_abortable c (Api.Eq 0));
         ("fas_open_unsafe", 3, fun c -> ignore (Api.fas_open_unsafe ~lock:0 c 1));
         ("write_close_unsafe", 3, fun c -> Api.write_close_unsafe ~lock:0 c 1);
         ("fas_persist", 3, fun c -> Api.fas_persist c 1 ~dst:c);
       ])

(* The instrumented path refills one [op_info] per run and the plans'
   consults allocate nothing unless they fire, so a consulted step costs
   what a fast-path step does (2 words on OCaml 5.1), a seeded gate's
   draw included: it compares its float where it draws it.  A note's
   [Some] payload is boxed once per distinct payload and kept across the
   arena's runs, so a body that alternates two payloads reuses both boxes
   (3.07 words a step when only the last payload's box was kept: the
   eight processes' notes interleave, and about half of the consults see
   a payload other than the last).  The plans here never fire. *)
let test_consulted_step_allocation () =
  let flip = ref false in
  let alternate _ =
    flip := not !flip;
    Api.note (if !flip then Event.Seg Event.Cs_begin else Event.Seg Event.Cs_end)
  in
  let both_axes () =
    (Crash.at_op ~pid:0 ~nth:max_int Crash.Before, Abort.at_op ~pid:0 ~nth:max_int)
  in
  let coin () = (Crash.random ~seed:5 ~rate:0.0 ~max_crashes:8 (), Abort.none) in
  let union () =
    ( Crash.all [ Crash.at_op ~pid:0 ~nth:max_int Crash.Before; Crash.system_at ~step:max_int ],
      Abort.none )
  in
  let pending () = (Crash.async_at [ (max_int, 0) ], Abort.none) in
  pins_hold
    (List.concat_map
       (fun (plan, bound, plans) ->
         List.map
           (fun (name, extra, instr) ->
             let w = words_per_step ~plans instr in
             let bound = bound + extra in
             ( Printf.sprintf "%s under %s: %.2f minor words per step <= %d" name plan w bound,
               w <= float_of_int bound ))
           [
             ("write", 0, fun c -> Api.write c 1);
             ("read", 0, fun c -> ignore (Api.read c));
             ("yield", 0, fun _ -> Api.yield ());
             ("note", 0, fun _ -> Api.note (Event.Seg Event.Cs_begin));
             ("alternating notes", 0, alternate);
           ])
       [
         ("at_op on both axes", 3, both_axes);
         ("random rate 0", 3, coin);
         ("all [at_op; system_at]", 3, union);
         ("async_at", 3, pending);
       ])

let words f =
  let w0 = Gc.minor_words () in
  let r = f () in
  (r, Gc.minor_words () -. w0)

let one_request lock ~pid = Harness.standard_body ~lock ~requests:1 pid

(* Minor words of [Engine.arena]: engine creation, lock construction (cell
   names included) and the sealed image.  [Engine.run] pays it on every
   call; an explorer search, a replay and a Chaos violation's confirm and
   shrink replays pay it once.  A warm-up construction first, so one-time
   initialisation is not counted. *)
let test_construction_allocation () =
  pins_hold
  @@ List.map
       (fun key ->
         let make = (Rme.Spec.find_exn key).Rme.Spec.make in
         let construct () = Engine.arena ~n:2 ~model:Memory.CC ~setup:make ~body:one_request in
         ignore (construct ());
         let _, w = words construct in
         (Printf.sprintf "%s n=2: %.0f minor words to construct <= 1400" key w, w <= 1400.))
       [ "sa-jjj"; "ba-jjj" ]

(* Minor words of one whole default-schedule explorer run with footprints:
   132 steps, degrees, footprints and [finish].  Cold: on a fresh arena,
   construction and sizing included (3,698 words before the continuation
   slots and the sized buffers; 2,973 with them on OCaml 5.1; 2,580
   now).  Warm: a run on one arena, as an explorer search's are, after two
   runs have sized it (the second one grows the store's pool of spare
   cache rows): the run rewinds the engine, the store and the buffers in
   place and constructs nothing, so only the steps and the result
   allocate — 416 words on OCaml 5.1, of which 264 are the steps'
   continuations; 590 when the step loop and its pick were closures built
   per run, [finish] rebuilt every lock's stats and the charged-kinds
   list, and every lock release filtered its holder's list; 1,335 when
   every run ran [setup]; 2,325 for a run on the buffers a search used to
   share. *)
let warm_run_words key =
  let make = (Rme.Spec.find_exn key).Rme.Spec.make in
  let fresh () = Engine.arena ~n:2 ~model:Memory.CC ~setup:make ~body:one_request in
  let run arena = Engine.run_trace ~arena ~por:true ~decisions:[||] ~crash:Crash.none () in
  ignore (run (fresh ()));
  let r, cold = words (fun () -> run (fresh ())) in
  let arena = fresh () in
  ignore (run arena);
  ignore (run arena);
  let _, warm = words (fun () -> run arena) in
  (r, cold, warm)

let test_trace_run_allocation () =
  let r, cold, warm = warm_run_words "sa-jjj" in
  check ci "default schedule length" 132 r.Engine.tr_result.Engine.steps;
  check ci "one degree per position" 132 r.Engine.tr_len;
  let degrees = Array.sub r.Engine.tr_degrees 0 r.Engine.tr_len in
  check ci "one footprint per runnable pid" 198 (Array.fold_left ( + ) 0 degrees);
  pins_hold
    [
      (Printf.sprintf "sa-jjj n=2: %.0f minor words per cold run <= 3300" cold, cold <= 3300.);
      (Printf.sprintf "sa-jjj n=2: %.0f minor words per warm run <= 460" warm, warm <= 460.);
    ]

(* The same warm run of wr-reclaim, 112 steps: its 4n^2 pool nodes are
   drawn at construction, into the image every run rewinds to, so a run
   draws and names none of them — 316 words on OCaml 5.1 (440 with the
   per-run closures and rebuilt stats above), against 993 when the first
   allocation of every run drew the pools. *)
let test_reclaim_run_allocation () =
  let r, _, warm = warm_run_words "wr-reclaim" in
  check ci "default schedule length" 112 r.Engine.tr_result.Engine.steps;
  pins_hold
    [ (Printf.sprintf "wr-reclaim n=2: %.0f minor words per warm run <= 350" warm, warm <= 350.) ]

(* Minor words per engine run of a whole warm [`Source] search: sa-jjj at
   n = 2, one request each, 18,876 engine runs of 133 steps on average, 89%
   of whose nodes hit the state cache.  The second search of the process
   is measured, so one-time initialisation is not counted.  A run pays its
   steps' continuations (266 words), the lock code and engine steps
   (118), its state key (16), [finish] (54) and the explorer's own
   bookkeeping (about 10): 455 words on OCaml 5.1.  It was 531 when a
   cache-miss node allocated six arrays as long as its remaining run, a
   drain closure, the race scan's closures and a list cell per summary
   footprint, and every run boxed its optional arguments; 1,102 when a
   cache hit built a closure per prefix position and per summary, every
   child copied its prefix into a fresh decision vector, sleep sets were
   filtered through closures over appended lists, the state key folded
   through closures over boxed accumulators, [finish] rebuilt what the
   last run had built and the window-marking instructions built their
   views per call.  The pin is 455 plus 5% plus the 22 words the earlier
   pin (580) left above 531 plus 5%. *)
let test_source_search_allocation () =
  let make = (Rme.Spec.find_exn "sa-jjj").Rme.Spec.make in
  let search () =
    let stats = ref None in
    let outcome =
      Rme_check.Explore.explore ~por:`Source ~max_runs:400_000 ~max_steps:20_000
        ~stats:(fun s -> stats := Some s)
        ~n:2 ~model:Memory.CC
        ~crash:(fun () -> Crash.none)
        ~setup:make ~body:one_request
        ~check:(fun res -> if res.Engine.cs_max > 1 then Some "ME violation" else None)
        ()
    in
    (outcome, Option.get !stats)
  in
  ignore (search ());
  let (outcome, stats), w = words search in
  check cb "exhausted" true outcome.Rme_check.Explore.exhausted;
  check ci "engine runs" 18_876 stats.Rme_check.Explore.engine_runs;
  let per_run = w /. float_of_int stats.Rme_check.Explore.engine_runs in
  pins_hold
    [
      ( Printf.sprintf "sa-jjj n=2 `Source search: %.0f minor words per engine run <= 500" per_run,
        per_run <= 500. );
    ]

(* A zero-step run on an arena constructs nothing: it allocates
   exactly what the same run of a setup that registers as many locks and
   allocates no cell does (the engine's per-run record and [finish]).  The
   node-allocating wr-reclaim runs its rewinders, which allocate nothing
   either. *)
let test_rewound_run_allocation () =
  let zero_step ~setup ~body =
    let arena = Engine.arena ~n:2 ~model:Memory.CC ~setup ~body in
    let run () = Engine.run_trace ~arena ~max_steps:0 ~por:true ~decisions:[||] ~crash:Crash.none () in
    ignore (run ());
    ignore (run ());
    let r, w = words run in
    (Array.length r.Engine.tr_result.Engine.locks, w)
  in
  pins_hold
  @@ List.map
       (fun key ->
         let nlocks, built = zero_step ~setup:(Rme.Spec.find_exn key).Rme.Spec.make ~body:one_request in
         let setup ctx =
           for _ = 1 to nlocks do
             ignore (Engine.Ctx.register_lock ctx key)
           done
         in
         let _, bare = zero_step ~setup ~body:(fun () ~pid:_ -> ()) in
         ( Printf.sprintf "%s n=2: %.0f minor words per zero-step rewound run = %.0f without cells" key
             built bare,
           built = bare ))
       [ "sa-jjj"; "ba-jjj"; "wr-reclaim" ]

(* Minor words per passage of [bench gc]'s two runs — 8 WR-Lock clients,
   500 requests each, [Sched.random ~seed:11] — on the fast path ([`Fast],
   dropping sink) and fully instrumented ([`Full], every event and op
   recorded).  The bench gates their wall-clock ratio, which a host
   changing speed between the two timings can flip; these counts are
   deterministic, so an allocation regression fails here on any host.
   147 and 10,361 words on OCaml 5.1, at 40 steps per passage (169 and
   10,383 while WR-Lock's window-marking instructions built their views
   per call and a window close filtered through a closure); the pins
   leave 5% plus one word per step for other 5.x runtimes, as the
   per-step pins do. *)
let test_gc_bench_allocation () =
  let n = 8 and requests = 500 in
  let run ~mode ~record ~trace_ops () =
    Engine.run ~mode ~record ~trace_ops ~max_steps:10_000_000 ~n ~model:Memory.CC
      ~sched:(Sched.random ~seed:11) ~crash:Crash.none ~setup:Rme_locks.Wr_lock.make
      ~body:(fun lock ~pid -> Harness.standard_body ~lock ~requests pid)
      ()
  in
  let per_passage ~mode ~record ~trace_ops =
    ignore (run ~mode ~record ~trace_ops ());
    let w0 = Gc.minor_words () in
    let res = run ~mode ~record ~trace_ops () in
    let w = Gc.minor_words () -. w0 in
    let passages = List.length (Engine.completed_passages res) in
    check ci "every request completes" (n * requests) passages;
    w /. float_of_int passages
  in
  let fast = per_passage ~mode:`Fast ~record:false ~trace_ops:false in
  let full = per_passage ~mode:`Full ~record:true ~trace_ops:true in
  pins_hold
    [
      (Printf.sprintf "fast: %.1f minor words per passage <= 195" fast, fast <= 195.);
      ( Printf.sprintf "instrumented: %.1f minor words per passage <= 10920" full,
        full <= 10920. );
    ]

(* ------------------------------------------------------------------ *)
(* Register dispatch: domain safety and crash hygiene                  *)
(* ------------------------------------------------------------------ *)

(* A crash-plan run over read-modify-write-heavy bodies: four processes
   hammer three shared cells with CAS, FAS, FAA, writes and notes under a
   random crash plan, recording every applied op with the cell contents
   after it. *)
let rmw_chaos seed =
  Engine.run ~trace_ops:true ~n:4 ~model:Memory.CC ~sched:(Sched.random ~seed)
    ~crash:(Crash.random ~seed ~rate:0.01 ~max_crashes:8 ())
    ~setup:(fun ctx ->
      let mem = Engine.Ctx.memory ctx in
      Array.init 3 (fun i -> Memory.alloc mem ~name:(Printf.sprintf "x%d" i) 0))
    ~body:(fun cells ~pid ->
      for i = 1 to 200 do
        let c = cells.((pid + i) mod 3) in
        match i mod 5 with
        | 0 -> ignore (Api.cas c ~expect:(Api.read c) ~value:(pid + i))
        | 1 -> ignore (Api.fas c i)
        | 2 -> ignore (Api.faa c pid)
        | 3 -> Api.write c (pid * i)
        | _ -> Api.note (Event.Level i)
      done)
    ()

let test_register_domain_safety () =
  (* Every engine takes its domain's operand register, so runs sharded
     over two domains must match the same runs on one, op for op. *)
  let tasks = Array.init 16 Fun.id in
  let one = Rme_check.Pool.map ~domains:1 ~tasks rmw_chaos in
  let two = Rme_check.Pool.map ~domains:2 ~tasks rmw_chaos in
  check cb "crashes happened" true (Array.exists (fun r -> r.Engine.total_crashes > 0) one);
  Array.iteri
    (fun i r ->
      check cb (Printf.sprintf "seed %d: identical over 1 and 2 domains" i) true (r = two.(i)))
    one

let test_crash_before_rmw_leaves_no_operands () =
  (* p0's second instruction, a CAS on [a], is crashed before it applies.
     Its restarted body then takes the other branch (FAA on [c], write to
     [b]) while p1 keeps refilling the register with operands on [d]: no
     CAS operand may leak into p0's next dispatch. *)
  let store = ref None and seen = ref [] in
  let res =
    Engine.run ~trace_ops:true ~n:2 ~model:Memory.CC ~sched:(Sched.round_robin ())
      ~crash:(Crash.at_op ~pid:0 ~nth:1 Crash.Before)
      ~on_op:(fun (i : Crash.op_info) ->
        if i.pid = 0 then seen := (i.op_index, i.kind, i.cell) :: !seen)
      ~setup:(fun ctx ->
        let m = Engine.Ctx.memory ctx in
        let cell name = Memory.alloc m ~name 0 in
        let cells = (cell "a", cell "b", cell "c", cell "d") in
        store := Some (m, cells);
        cells)
      ~body:(fun (a, b, c, d) ~pid ->
        if pid = 0 then begin
          if Api.faa c 1 = 0 then ignore (Api.cas a ~expect:0 ~value:1) else Api.write b 7
        end
        else begin
          Api.write d 3;
          ignore (Api.fas d 4);
          ignore (Api.cas d ~expect:4 ~value:5)
        end)
      ()
  in
  check ci "one crash" 1 res.Engine.total_crashes;
  check cb "p0's op stream" true
    (List.rev !seen
    = [
        (0, Api.Faa, Some "c");
        (1, Api.Cas, Some "a");
        (2, Api.Faa, Some "c");
        (3, Api.Write, Some "b");
      ]);
  let applied =
    List.filter_map
      (function Event.Op { pid = 0; kind; cell; value; _ } -> Some (kind, cell, value) | _ -> None)
      res.Engine.events
  in
  check cb "p0's applied ops" true
    (applied = [ ("faa", "c", 1); ("faa", "c", 2); ("write", "b", 7) ]);
  match !store with
  | None -> Alcotest.fail "setup never ran"
  | Some (m, (a, b, c, d)) ->
      check (Alcotest.list ci) "final a b c d" [ 0; 7; 2; 5 ]
        (List.map (Memory.peek m) [ a; b; c; d ])

(* Crashes that discontinue every kind of continuation slot.  p0 loops on
   reads (pending on an int answer), p1 on CAS (a bool answer), p2 on
   writes (unit) and p3 spins until p2 publishes its request count.  Under
   round-robin, [at_op ~pid:1 ~nth:3 Before] strikes p1's second CAS at
   step 16 while p0 and p2 are pending, and the system crash at step 30
   finds p0 on a read, p1 on a CAS, p2 on a write and p3 parked. *)
let slot_run () =
  Engine.run ~n:4 ~model:Memory.CC ~sched:(Sched.round_robin ())
    ~crash:(Crash.all [ Crash.system_at ~step:30; Crash.at_op ~pid:1 ~nth:3 Crash.Before ])
    ~setup:(fun ctx ->
      let m = Engine.Ctx.memory ctx in
      (Memory.alloc m ~name:"a" 0, Memory.alloc m ~name:"flag" 0))
    ~body:(fun (a, flag) ~pid ->
      while Api.completed_requests () < 2 do
        Api.note (Event.Seg Event.Req_begin);
        (match pid with
        | 0 -> for _ = 1 to 6 do ignore (Api.read a) done
        | 1 -> for i = 1 to 6 do ignore (Api.cas a ~expect:(i - 1) ~value:i) done
        | 2 ->
            for i = 1 to 6 do Api.write a i done;
            Api.write flag (Api.completed_requests () + 1)
        | _ -> Api.spin_until flag (Api.Ge (Api.completed_requests () + 1)));
        Api.note (Event.Seg Event.Cs_begin);
        Api.yield ();
        Api.note (Event.Seg Event.Cs_end);
        Api.note (Event.Seg Event.Req_done)
      done)
    ()

(* An abort signal at step 12 wakes p0, parked on an abortable spin since
   step 9; p0 aborts, retries and parks again until p1 sets the flag. *)
let abort_wake_run () =
  Engine.run ~n:2 ~model:Memory.CC ~sched:(Sched.round_robin ()) ~crash:Crash.none
    ~abort:(Abort.async_at [ (12, 0) ])
    ~setup:(fun ctx ->
      (Engine.Ctx.register_lock ctx "gate", Memory.alloc (Engine.Ctx.memory ctx) ~name:"flag" 0))
    ~body:(fun (id, flag) ~pid ->
      if pid = 0 then
        while Api.completed_requests () < 1 do
          Api.note (Event.Seg Event.Req_begin);
          Api.note (Event.Lock_enter id);
          Api.spin_abortable flag (Api.Ne 0);
          if Api.poll_abort () then Api.note (Event.Abort_done id)
          else begin
            Api.note (Event.Lock_acquired id);
            Api.note (Event.Seg Event.Cs_begin);
            Api.note (Event.Seg Event.Cs_end);
            Api.note (Event.Lock_release id);
            Api.note (Event.Seg Event.Req_done)
          end
        done
      else begin
        for _ = 1 to 30 do Api.yield () done;
        Api.write flag 1;
        Api.note (Event.Seg Event.Req_done)
      end)
    ()

(* Pinned to the figures of the engine before the continuation slots. *)
let test_continuation_slots_under_crashes () =
  let per_pid (r : Engine.result) f = Array.to_list (Array.map f r.Engine.procs) in
  let r = slot_run () in
  check ci "crash run: steps" 132 r.Engine.steps;
  check ci "crash run: total_rmr" 52 r.Engine.total_rmr;
  check ci "crash run: system crashes" 1 r.Engine.system_crashes;
  check (Alcotest.list ci) "crash run: completed" [ 2; 2; 2; 2 ]
    (per_pid r (fun p -> p.Engine.completed));
  check (Alcotest.list ci) "crash run: crashes" [ 1; 2; 1; 1 ]
    (per_pid r (fun p -> p.Engine.crashes));
  check ci "crash run: cs_max" 4 r.Engine.cs_max;
  let r = abort_wake_run () in
  check ci "abort run: steps" 53 r.Engine.steps;
  check ci "abort run: total_rmr" 3 r.Engine.total_rmr;
  check (Alcotest.list ci) "abort run: completed" [ 1; 1 ] (per_pid r (fun p -> p.Engine.completed));
  check (Alcotest.list ci) "abort run: crashes" [ 0; 0 ] (per_pid r (fun p -> p.Engine.crashes));
  check ci "abort run: cs_max" 1 r.Engine.cs_max;
  check cb "abort run: the woken spinner aborted" true
    (List.map (fun (a : Engine.abort_stat) -> (a.ab_pid, a.ab_signal_step, a.ab_result)) r.Engine.aborts
    = [ (0, 12, Engine.Res_aborted) ])

(* ------------------------------------------------------------------ *)
(* Explorer search-effort counters                                     *)
(* ------------------------------------------------------------------ *)

let explore_subject ~stats ~por =
  let body c ~pid:_ =
    if Api.completed_requests () < 1 then begin
      Api.note (Event.Seg Event.Req_begin);
      Api.write c 1;
      Api.write c 2;
      Api.note (Event.Seg Event.Req_done)
    end
  in
  let setup ctx = Memory.alloc (Engine.Ctx.memory ctx) ~name:"c" 0 in
  let check_fn (_ : Engine.result) = None in
  Rme_check.Explore.explore ~stats ~por ~n:3 ~model:Memory.CC
    ~crash:(fun () -> Crash.none)
    ~setup ~body ~check:check_fn ()

let test_explore_stats_sequential () =
  let got = ref None in
  let outcome = explore_subject ~stats:(fun s -> got := Some s) ~por:`Sleep in
  match !got with
  | None -> Alcotest.fail "stats callback never fired"
  | Some s ->
      check cb "counted at least one engine run per schedule" true
        (s.Rme_check.Explore.engine_runs >= outcome.Rme_check.Explore.runs);
      check cb "steps accumulated" true
        (s.Rme_check.Explore.engine_steps > s.Rme_check.Explore.engine_runs);
      check ci "no cache outside `Source" 0 s.Rme_check.Explore.cache_misses

let test_explore_stats_source_cache () =
  let got = ref None in
  ignore (explore_subject ~stats:(fun s -> got := Some s) ~por:`Source);
  match !got with
  | None -> Alcotest.fail "stats callback never fired"
  | Some s ->
      check cb "state cache consulted" true (s.Rme_check.Explore.cache_misses > 0)

let () =
  Alcotest.run "service"
    [
      ( "vec",
        [
          Alcotest.test_case "push through growth" `Quick test_vec_push_through_growth;
          Alcotest.test_case "unsafe_get after resize" `Quick test_vec_unsafe_get_after_resize;
        ] );
      ( "sink",
        [
          Alcotest.test_case "drop" `Quick test_sink_drop;
          Alcotest.test_case "ring wrap-around" `Quick test_sink_ring_wraparound;
          Alcotest.test_case "keep vs drop equivalence" `Quick test_keep_vs_drop_equivalence;
          Alcotest.test_case "ring is keep's suffix" `Quick test_ring_is_keep_suffix;
        ] );
      ( "fast-path",
        [
          Alcotest.test_case "fast/auto/full differential" `Quick test_fast_full_differential;
          Alcotest.test_case "fast rejects instrumentation" `Quick
            test_fast_rejects_instrumented_configs;
          Alcotest.test_case "api.step monotone" `Quick test_api_step_monotone;
          Alcotest.test_case "open-loop pacing" `Quick test_open_loop_pacing;
          Alcotest.test_case "minor words per step" `Quick test_step_allocation;
          Alcotest.test_case "minor words per consulted step" `Quick test_consulted_step_allocation;
          Alcotest.test_case "minor words per construction" `Quick test_construction_allocation;
          Alcotest.test_case "minor words per explorer run" `Quick test_trace_run_allocation;
          Alcotest.test_case "minor words per wr-reclaim explorer run" `Quick
            test_reclaim_run_allocation;
          Alcotest.test_case "minor words per rewound zero-step run" `Quick
            test_rewound_run_allocation;
          Alcotest.test_case "minor words per bench gc passage" `Quick test_gc_bench_allocation;
          Alcotest.test_case "minor words per source search run" `Quick
            test_source_search_allocation;
        ] );
      ( "register dispatch",
        [
          Alcotest.test_case "domain safety" `Quick test_register_domain_safety;
          Alcotest.test_case "crash-before leaves no operands" `Quick
            test_crash_before_rmw_leaves_no_operands;
          Alcotest.test_case "continuation slots under crashes" `Quick
            test_continuation_slots_under_crashes;
        ] );
      ( "explore-stats",
        [
          Alcotest.test_case "sequential" `Quick test_explore_stats_sequential;
          Alcotest.test_case "source cache" `Quick test_explore_stats_source_cache;
        ] );
    ]
