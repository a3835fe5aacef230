(* The repository benchmark: one command over three workloads.

     bash rmebench/run.sh --workload service --seed 1 --seconds 20 --trace 0

   [--trace 0] measures the end-to-end metrics; [--trace 1] is the
   separate traced run that reports the per-layer metrics.  The last line
   of standard output is one JSON object with the keys [correct],
   [attempted], [failed] and [metrics].  The command exits non-zero only
   when it cannot run (bad arguments, an exception); counted failures and
   slow runs never change the exit code.  See NOTES.md. *)

open Rme_sim

(* Host seconds one chunk of each workload takes on the reference host
   (2-core x86-64 VM); the run measures [seconds / nominal] chunks. *)
let workloads =
  [ ("service", Service.prepare, 2.0); ("verify", Verify.prepare, 6.0); ("recover", Recover.prepare, 2.0) ]

let end_to_end =
  [
    ("setup_s", "s");
    ("passages_per_s", "1/s");
    ("latency_p50_steps", "steps");
    ("latency_p99_steps", "steps");
    ("latency_p999_steps", "steps");
    ("rmr_per_passage", "rmr");
    ("minor_words_per_passage", "words");
    ("verify_s", "s");
    ("campaign_runs_per_s", "1/s");
    ("peak_heap_mb", "MB");
  ]

let service_locks = Service.locks

let per_layer =
  [
    ("engine.runs", "count");
    ("engine.steps", "count");
    ("engine.steps_per_s", "1/s");
    ("engine.ns_per_step", "ns");
    ("engine.minor_words_per_step", "words");
    ("engine.self_s", "s");
    ("engine.nop_step_share", "ratio");
  ]
  @ Array.to_list (Array.map (fun k -> ("memory.rmr_" ^ k, "count")) Tally.kind_names)
  @ [ ("memory.op_ns", "ns"); ("sched.pick_ns", "ns"); ("sched.trace_pick_ns", "ns") ]
  @ List.concat_map
      (fun k ->
        [
          ("locks." ^ k ^ ".rmr_per_passage", "rmr");
          ("locks." ^ k ^ ".latency_p99_steps", "steps");
          ("locks." ^ k ^ ".passages_per_s", "1/s");
        ])
      service_locks
  @ [
      ("locks.setup_s", "s");
      ("crash.fired_per_run", "count");
      ("abort.fired_per_run", "count");
      ("crash.consult_ns", "ns");
      ("event.emitted_per_run", "count");
      ("event.emit_ns", "ns");
      ("event.ring_emit_ns", "ns");
      ("footprint.independent_ns", "ns");
      ("statecache.find_ns", "ns");
      ("statecache.add_ns", "ns");
      ("statecache.hits", "count");
      ("statecache.misses", "count");
      ("statecache.evictions", "count");
      ("statecache.hit_ratio", "ratio");
    ]
  @ List.map (fun (s : Verify.subject) -> ("explore." ^ s.Verify.name ^ ".runs", "count")) Verify.subjects
  @ [
      ("explore.steps_per_run", "steps");
      ("explore.check_s", "s");
      ("props.battery_s", "s");
      ("chaos.run_one_s", "s");
      ("chaos.crashes", "count");
      ("chaos.detect_latency_steps", "steps");
      ("arrivals.start_lag_p99_steps", "steps");
      ("gc.minor_collections", "count");
      ("gc.major_collections", "count");
      ("failed_ratio", "ratio");
      ("bench.self_s", "s");
      ("trace.total_s", "s");
      ("trace.overhead", "ratio");
    ]

(* --- arguments ------------------------------------------------------ *)

let usage =
  "usage: main.exe --workload (service|verify|recover) --seed N --seconds S --trace (0|1)"

let die msg =
  prerr_endline ("rmebench: " ^ msg);
  prerr_endline usage;
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let int_arg name r v =
    match int_of_string_opt v with Some n -> r := Some n | None -> die (name ^ " wants an integer")
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        workload := Some v;
        go rest
    | "--seed" :: v :: rest ->
        int_arg "--seed" seed v;
        go rest
    | "--seconds" :: v :: rest ->
        int_arg "--seconds" seconds v;
        go rest
    | "--trace" :: v :: rest ->
        int_arg "--trace" trace v;
        go rest
    | arg :: _ -> die ("unexpected argument " ^ arg)
  in
  go (List.tl (Array.to_list Sys.argv));
  let get name = function Some v -> v | None -> die ("missing " ^ name) in
  let w = get "--workload" !workload in
  let prepare, nominal =
    match List.find_opt (fun (n, _, _) -> n = w) workloads with
    | Some (_, p, nominal) -> (p, nominal)
    | None -> die ("unknown workload " ^ w)
  in
  let seconds = get "--seconds" !seconds in
  if seconds < 1 || seconds > 600 then die "--seconds must be in 1..600";
  let trace =
    match get "--trace" !trace with 0 -> false | 1 -> true | _ -> die "--trace must be 0 or 1"
  in
  (w, prepare, nominal, get "--seed" !seed, seconds, trace)

(* --- measurement ---------------------------------------------------- *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0 else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

type timed = {
  round : Tally.round;
  wall : float;
  minor_words : float;
  minor_gcs : int;
  major_gcs : int;
}

let timed f =
  let g0 = Gc.quick_stat () in
  let w0 = Gc.minor_words () in
  let t0 = Span.now () in
  let round = f () in
  let wall = Span.now () -. t0 in
  let w1 = Gc.minor_words () in
  let g1 = Gc.quick_stat () in
  {
    round;
    wall;
    minor_words = w1 -. w0;
    minor_gcs = g1.Gc.minor_collections - g0.Gc.minor_collections;
    major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
  }

let count name (r : Tally.round) = Option.value ~default:0.0 (List.assoc_opt name r.Tally.counts)

let engine_runs (r : Tally.round) =
  match List.assoc_opt "engine.runs" r.Tally.counts with
  | Some v -> v
  | None -> float_of_int r.Tally.sim.Tally.runs

let engine_steps (r : Tally.round) =
  match List.assoc_opt "engine.steps" r.Tally.counts with
  | Some v -> v
  | None -> float_of_int r.Tally.sim.Tally.steps

let passages (t : timed) = float_of_int (max 1 t.round.Tally.sim.Tally.completed)

let sum f (ts : timed list) = List.fold_left (fun acc t -> acc + f t.round) 0 ts

let attempted = sum (fun r -> r.Tally.attempted)

let failed = sum (fun r -> r.Tally.failed)

let pooled (ts : timed list) =
  let a = Tally.acc () in
  List.iter (fun t -> Tally.merge ~into:a t.round.Tally.sim) ts;
  a

(* Chunks with equal inputs must produce equal digests. *)
let determinism_problems ~(p : Workload.prepared) (ts : timed list) =
  let digests = List.map (fun t -> t.round.Tally.digest) ts in
  if p.Workload.same_inputs then
    if List.for_all (String.equal (List.hd digests)) digests then []
    else [ "chunks with the same inputs produced different digests" ]
  else
    let again = p.Workload.chunk 0 in
    if again.Tally.digest = List.hd digests then []
    else [ "chunk 0 produced a different digest when run again" ]

let untraced ~setup_s ~(p : Workload.prepared) ~chunks =
  let ts = List.init chunks (fun i -> timed (fun () -> p.Workload.chunk i)) in
  let problems = determinism_problems ~p ts in
  let all = pooled ts in
  let lat = all.Tally.lat in
  let med f = median (List.map f ts) in
  let top_heap = (Gc.quick_stat ()).Gc.top_heap_words in
  let metrics =
    [
      ("setup_s", setup_s);
      ("passages_per_s", med (fun t -> passages t /. t.wall));
      ("latency_p50_steps", float_of_int (Tally.Hist.percentile lat 0.50));
      ("latency_p99_steps", float_of_int (Tally.Hist.percentile lat 0.99));
      ("latency_p999_steps", float_of_int (Tally.Hist.percentile lat 0.999));
      ("rmr_per_passage", Tally.rmr_per_passage all);
      ("minor_words_per_passage", med (fun t -> t.minor_words /. passages t));
      ("verify_s", med (fun t -> t.wall));
      ("campaign_runs_per_s", med (fun t -> engine_runs t.round /. t.wall));
      ("peak_heap_mb", float_of_int (top_heap * (Sys.word_size / 8)) /. 1e6);
    ]
  in
  Printf.printf "chunks: %d; latency samples: %d; passages: %d\n" chunks (Tally.Hist.count lat)
    all.Tally.completed;
  (ts, problems, metrics)

let traced ~workload ~seed ~(p : Workload.prepared) ~chunks =
  let u = max 1 (chunks / 3) in
  let plain = List.init u (fun i -> timed (fun () -> p.Workload.chunk i)) in
  let tr = Span.create () in
  let spans =
    List.init u (fun i ->
        timed (fun () -> Span.wrap (Some tr) "bench" "" (fun () -> p.Workload.chunk ~tr i)))
  in
  let problems =
    List.concat
      (List.map2
         (fun a b ->
           if a.round.Tally.digest = b.round.Tally.digest then []
           else [ "a traced chunk produced a different digest from its untraced run" ])
         plain spans)
  in
  let ops = ref 0 and nops = ref 0 in
  p.Workload.count_ops (fun k ->
      incr ops;
      if k = Api.Nop then incr nops);
  let prims = Prims.metrics () in
  (try Sys.mkdir "rmebench/out" 0o755 with Sys_error _ -> ());
  let span_file = Printf.sprintf "rmebench/out/spans-%s-%d.tsv" workload seed in
  Span.write tr span_file;
  let uf = float_of_int u in
  let self = Span.self_by_name tr in
  let self_of names =
    List.fold_left (fun acc n -> acc +. Option.value ~default:0.0 (Hashtbl.find_opt self n)) 0.0 names
    /. uf
  in
  let total = Hashtbl.fold (fun _ v acc -> acc +. v) self 0.0 /. uf in
  let root = Span.total tr ~name:"bench" /. uf in
  let problems =
    if Float.abs (total -. root) > 1e-6 *. root then
      "layer self times do not add up to the traced total" :: problems
    else problems
  in
  let avg f = List.fold_left (fun acc t -> acc +. f t) 0.0 spans /. uf in
  let all = pooled spans in
  let runs = avg (fun t -> engine_runs t.round) and steps = avg (fun t -> engine_steps t.round) in
  let engine_self = self_of [ "engine"; "explore"; "chaos.run_one" ] in
  let plain_wall = List.fold_left (fun acc t -> acc +. t.wall) 0.0 plain /. uf in
  let plain_minor = List.fold_left (fun acc t -> acc +. t.minor_words) 0.0 plain /. uf in
  let lock_metrics key =
    let a =
      List.fold_left
        (fun a t ->
          (match List.assoc_opt key t.round.Tally.locks with
          | Some l -> Tally.merge ~into:a l
          | None -> ());
          a)
        (Tally.acc ()) spans
    in
    let time =
      List.fold_left
        (fun acc name -> acc +. Span.total tr ~name ~tag:key)
        0.0 [ "engine"; "explore"; "chaos.run_one" ]
    in
    [
      ("locks." ^ key ^ ".rmr_per_passage", Tally.rmr_per_passage a);
      ( "locks." ^ key ^ ".latency_p99_steps",
        float_of_int (Tally.Hist.percentile a.Tally.lat 0.99) );
      ( "locks." ^ key ^ ".passages_per_s",
        if time > 0.0 then float_of_int a.Tally.completed /. time else 0.0 );
    ]
  in
  let counted name = (name, avg (fun t -> count name t.round)) in
  let metrics =
    [
      ("engine.runs", runs);
      ("engine.steps", steps);
      ("engine.steps_per_s", steps /. plain_wall);
      ("engine.ns_per_step", engine_self *. 1e9 /. Float.max 1.0 steps);
      ("engine.minor_words_per_step", plain_minor /. Float.max 1.0 steps);
      ("engine.self_s", engine_self);
      ("engine.nop_step_share", float_of_int !nops /. float_of_int (max 1 !ops));
    ]
    @ Array.to_list
        (Array.mapi
           (fun i k -> ("memory.rmr_" ^ k, float_of_int all.Tally.kinds.(i) /. uf))
           Tally.kind_names)
    @ prims
    @ List.concat_map lock_metrics service_locks
    @ [
        ("locks.setup_s", self_of [ "locks.setup" ]);
        counted "crash.fired_per_run";
        counted "abort.fired_per_run";
        counted "event.emitted_per_run";
        counted "statecache.hits";
        counted "statecache.misses";
        counted "statecache.evictions";
        counted "statecache.hit_ratio";
      ]
    @ List.map
        (fun (s : Verify.subject) -> counted ("explore." ^ s.Verify.name ^ ".runs"))
        Verify.subjects
    @ [
        counted "explore.steps_per_run";
        ("explore.check_s", self_of [ "explore.check" ]);
        ("props.battery_s", self_of [ "props.battery" ]);
        ("chaos.run_one_s", Span.total tr ~name:"chaos.run_one" /. uf);
        counted "chaos.crashes";
        counted "chaos.detect_latency_steps";
        counted "arrivals.start_lag_p99_steps";
        ("gc.minor_collections", median (List.map (fun t -> float_of_int t.minor_gcs) plain));
        ("gc.major_collections", median (List.map (fun t -> float_of_int t.major_gcs) plain));
        ("failed_ratio", float_of_int (failed spans) /. float_of_int (max 1 (attempted spans)));
        ("bench.self_s", self_of [ "bench"; "bench.tally" ]);
        ("trace.total_s", root);
        ("trace.overhead", (root /. plain_wall) -. 1.0);
      ]
  in
  Printf.printf "traced chunks: %d; spans: %d -> %s\n" u tr.Span.n span_file;
  (spans, problems, metrics)

(* --- output --------------------------------------------------------- *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let emit ~names ~values ~correct ~attempted ~failed =
  let value name =
    match List.assoc_opt name values with
    | Some v when Float.is_finite v -> v
    | Some v -> failwith (Printf.sprintf "metric %s is not finite (%g)" name v)
    | None -> failwith ("metric not measured: " ^ name)
  in
  List.iter (fun (name, u) -> Printf.printf "%-34s %s %s\n" name (json_number (value name)) u) names;
  let fields =
    List.map
      (fun (name, u) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number (value name)) u)
      names
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed (String.concat ", " fields)

let () =
  let workload, prepare, nominal, seed, seconds, trace = parse_args () in
  let chunks = max 3 (int_of_float (Float.round (float_of_int seconds /. nominal))) in
  (* Set-up: input generation, lock lookup, warm-up; several times, the
     median reported, so that work moved into set-up shows. *)
  let setups =
    List.init 5 (fun _ ->
        let t0 = Span.now () in
        let p = prepare ~seed ~chunks in
        (p, Span.now () -. t0))
  in
  let p = fst (List.nth setups 4) in
  let setup_s = median (List.map snd setups) in
  let ts, problems, metrics =
    if trace then traced ~workload ~seed ~p ~chunks else untraced ~setup_s ~p ~chunks
  in
  let problems = problems @ List.concat_map (fun t -> t.round.Tally.problems) ts in
  let digest =
    Digest.to_hex (Digest.string (String.concat "" (List.map (fun t -> t.round.Tally.digest) ts)))
  in
  Printf.printf "workload %s, seed %d, %d s\n" workload seed seconds;
  Printf.printf "digest %s %s (%d chunks)\n" workload digest (List.length ts);
  List.iter (fun t -> List.iter (Printf.printf "failure: %s\n") t.round.Tally.failures) ts;
  List.iter (Printf.printf "problem: %s\n") problems;
  emit
    ~names:(if trace then per_layer else end_to_end)
    ~values:metrics ~correct:(problems = []) ~attempted:(attempted ts) ~failed:(failed ts)
