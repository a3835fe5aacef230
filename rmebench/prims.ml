(* Nanoseconds per call of the primitives that run inside [Engine.run],
   where the benchmark cannot put a span around them: memory operations,
   scheduler picks, crash consults, event emission, footprint
   independence and state-cache lookups.  Timed with Bechamel (OLS of
   time against run count) on their public functions.  Multiplied by the
   traced run's operation counts they bound each layer's share of
   [engine.self_s]. *)

open Rme_sim

(* Calls [f] and every [every] calls also [reset], so buffers that grow
   per call (kept events, recorded degrees) stay small; the reset is
   amortised into the per-call figure. *)
let amortised ~every ~reset f =
  let k = ref 0 in
  fun () ->
    f ();
    incr k;
    if !k = every then begin
      k := 0;
      reset ()
    end

let memory_tests () =
  List.concat_map
    (fun (label, model) ->
      let m = Memory.create model ~n:8 in
      let cells = Array.init 8 (fun i -> Memory.alloc m ~home:i ~name:"c" 0) in
      let pid = ref 0 in
      let next () =
        pid := (!pid + 1) land 7;
        !pid
      in
      let c i = Array.unsafe_get cells i in
      [
        ( "memory." ^ label ^ ".read",
          fun () ->
            let p = next () in
            ignore (Sys.opaque_identity (Memory.read_u m ~pid:p (c p))) );
        ( "memory." ^ label ^ ".cas",
          fun () ->
            let p = next () in
            ignore (Sys.opaque_identity (Memory.cas_u m ~pid:p (c 0) ~expect:0 ~value:0)) );
        ( "memory." ^ label ^ ".fas",
          fun () ->
            let p = next () in
            ignore (Sys.opaque_identity (Memory.fas_u m ~pid:p (c 1) p)) );
      ])
    [ ("cc", Memory.CC); ("dsm", Memory.DSM) ]

let other_tests () =
  let runnable = Array.init 8 Fun.id in
  let rnd = Sched.random ~seed:7 in
  let step = ref 0 in
  let record = Vec.create () in
  let trace = Sched.trace ~decisions:(Vec.create ()) ~record () in
  let storm = Crash.storm ~seed:7 ~rate:0.004 ~max_crashes:8 ~gap:300 ~backoff:2.0 () in
  let infos =
    Array.init 64 (fun i ->
        {
          Crash.pid = i land 7;
          step = i;
          op_index = i;
          kind = Api.Read;
          cell = Some "c";
          note = None;
          unsafe_wrt = [];
        })
  in
  let ev = Event.Note { step = 1; pid = 0; super = 0; note = Event.Seg Event.Cs_begin } in
  let keep = Event.Sink.keep () in
  let ring = Event.Sink.ring ~capacity:1024 in
  let m = Memory.create Memory.CC ~n:2 in
  let c0 = Memory.alloc m ~name:"a" 0 and c1 = Memory.alloc m ~name:"b" 0 in
  let fa = Footprint.of_view ~pid:0 ~crashy:false (Api.V_read c0) in
  let fb = Footprint.of_view ~pid:1 ~crashy:false (Api.V_write (c1, 1)) in
  let keys = Array.init 4096 (fun i -> Array.init 24 (fun j -> (i * 7919) + j)) in
  let cache = Rme_check.Statecache.create ~capacity:65536 () in
  Array.iter (fun key -> Rme_check.Statecache.add cache ~key ~slept:0 ~summary:()) keys;
  let ki = ref 0 in
  let next_key () =
    ki := (!ki + 1) land 4095;
    Array.unsafe_get keys !ki
  in
  [
    ( "sched.random",
      fun () ->
        incr step;
        ignore (Sys.opaque_identity (Sched.pick rnd ~runnable ~step:!step)) );
    ( "sched.trace",
      amortised ~every:4096
        ~reset:(fun () -> Vec.clear record)
        (fun () -> ignore (Sys.opaque_identity (Sched.pick trace ~runnable ~step:0))) );
    ( "crash.consult",
      fun () ->
        incr step;
        ignore (Sys.opaque_identity (Crash.on_op storm infos.(!step land 63))) );
    ( "event.keep",
      amortised ~every:4096 ~reset:(fun () -> Event.Sink.clear keep) (fun () -> Event.Sink.emit keep ev)
    );
    ("event.ring", fun () -> Event.Sink.emit ring ev);
    ("footprint.independent", fun () -> ignore (Sys.opaque_identity (Footprint.independent fa fb)));
    ( "statecache.find",
      fun () -> ignore (Sys.opaque_identity (Rme_check.Statecache.find cache ~key:(next_key ()) ~slept:0)) );
    ("statecache.add", fun () -> Rme_check.Statecache.add cache ~key:(next_key ()) ~slept:0 ~summary:());
  ]

(* ns per call of every test, by test name. *)
let measure () =
  let open Bechamel in
  let tests =
    List.map
      (fun (name, f) -> Test.make ~name (Staged.stage f))
      (memory_tests () @ other_tests ())
  in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.2) ~kde:None ~stabilize:false ~start:100
      ~sampling:(`Geometric 1.05) ()
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let clock = Toolkit.Instance.monotonic_clock in
  let raw = Benchmark.all cfg [ clock ] (Test.make_grouped ~name:"" ~fmt:"%s%s" tests) in
  let results = Analyze.all ols clock raw in
  fun name ->
    match Hashtbl.find_opt results name with
    | Some r -> (
        match Analyze.OLS.estimates r with Some (est :: _) -> est | Some [] | None -> 0.0)
    | None -> invalid_arg ("Prims.measure: no result for " ^ name)

let metrics () =
  let ns = measure () in
  let mean names = List.fold_left (fun acc n -> acc +. ns n) 0.0 names /. float_of_int (List.length names) in
  [
    ( "memory.op_ns",
      mean
        (List.concat_map
           (fun m -> List.map (fun op -> Printf.sprintf "memory.%s.%s" m op) [ "read"; "cas"; "fas" ])
           [ "cc"; "dsm" ]) );
    ("sched.pick_ns", ns "sched.random");
    ("sched.trace_pick_ns", ns "sched.trace");
    ("crash.consult_ns", ns "crash.consult");
    ("event.emit_ns", ns "event.keep");
    ("event.ring_emit_ns", ns "event.ring");
    ("footprint.independent_ns", ns "footprint.independent");
    ("statecache.find_ns", ns "statecache.find");
    ("statecache.add_ns", ns "statecache.add");
  ]
