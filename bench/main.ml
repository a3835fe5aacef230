(* Bench harness: regenerates every table and figure of the paper (see
   DESIGN.md section 4 for the experiment index) from the simulator, plus
   the wall-clock gate CI runs: [gc] (engine fast path vs fully
   instrumented).

     dune exec bench/main.exe                      # everything
     dune exec bench/main.exe -- table1            # one experiment
     dune exec bench/main.exe -- table1 --csv out  # also write CSV tables

   The experiment list is the [experiments] registry at the end of this
   file; an unknown name prints it as usage text and exits 2.

   Absolute numbers are simulator RMR counts, not hardware cycles; the
   claims under reproduction are the *shapes* (who is flat, who grows like
   sqrt F, where the ceilings sit). *)

open Rme_sim
open Rme_locks

let fmt_f x = Printf.sprintf "%.0f" x

(* With --csv DIR every printed table is also written as DIR/table_NN.csv. *)
let csv_dir = ref None

let csv_count = ref 0

let table ~header ~rows =
  Rme.Report.table ~header ~rows;
  match !csv_dir with
  | None -> ()
  | Some dir ->
      incr csv_count;
      let path = Filename.concat dir (Printf.sprintf "table_%02d.csv" !csv_count) in
      Rme.Report.write_csv ~path ~header ~rows;
      Fmt.pr "(csv: %s)@." path

let scenario_none = Rme.Workload.No_failures

let scenario_f f = Rme.Workload.Fas_storm { f; rate = 0.4 }

let cfg ?(n = 16) ?(requests = 12) ?(seed = 5) ?(model = Memory.CC) ?(cs_yields = 6) scenario =
  { Rme.Workload.default_cfg with n; requests; seed; model; scenario; cs_yields }

let measure key c = Rme.Workload.measure (Rme.Workload.run_key key c)

(* Worst passage RMRs averaged over three scheduler seeds (noise control for
   the growth-fitting of Table 2).  The averaging seeds are derived from the
   configured seed so that ablations varying [cfg.seed] actually resample
   the schedules. *)
let avg_max_rmr key c =
  let base = 3 * c.Rme.Workload.seed in
  let one k =
    (measure key { c with Rme.Workload.seed = base + k }).Rme.Workload.max_rmr
  in
  (one 1 +. one 2 +. one 3) /. 3.0

(* ------------------------------------------------------------------ *)
(* Table 1: RMR complexity under three failure scenarios               *)
(* ------------------------------------------------------------------ *)

let table1 () =
  Fmt.pr "@.=== Table 1: worst passage RMRs under three failure scenarios ===@.";
  Fmt.pr "(n = 16 and n = 64; F = 16 unsafe failures; storm = 64 crashes)@.@.";
  let keys = List.filter (fun (s : Rme.Spec.t) -> s.table1) Rme.Spec.all in
  List.iter
    (fun model ->
      Fmt.pr "--- %a model ---@." Memory.pp_model model;
      let row (s : Rme.Spec.t) =
        let m0 n = measure s.key (cfg ~n ~model scenario_none) in
        let mf n = measure s.key (cfg ~n ~model (scenario_f 16)) in
        let ms n =
          measure s.key (cfg ~n ~model (Rme.Workload.Random_storm { crashes = 64; rate = 0.01 }))
        in
        [
          s.key;
          s.expectation.Rme.Spec.failure_free;
          fmt_f (m0 16).Rme.Workload.max_rmr;
          fmt_f (m0 64).Rme.Workload.max_rmr;
          fmt_f (mf 16).Rme.Workload.max_rmr;
          fmt_f (mf 64).Rme.Workload.max_rmr;
          fmt_f (ms 16).Rme.Workload.max_rmr;
          fmt_f (ms 64).Rme.Workload.max_rmr;
        ]
      in
      table
        ~header:
          [
            "lock"; "expected (ff)"; "ff n=16"; "ff n=64"; "F=16 n=16"; "F=16 n=64";
            "storm n=16"; "storm n=64";
          ]
        ~rows:(List.map row keys);
      Fmt.pr "@.")
    [ Memory.CC; Memory.DSM ]

(* ------------------------------------------------------------------ *)
(* Table 2: performance-measure classification                          *)
(* ------------------------------------------------------------------ *)

let table2 () =
  Fmt.pr "@.=== Table 2: performance measures PM1-PM3 (measured) ===@.@.";
  let ns = [ 4; 8; 16; 32; 64 ] in
  let fs = [ 2; 4; 8; 16; 32; 64 ] in
  let keys = List.filter (fun (s : Rme.Spec.t) -> s.table1) Rme.Spec.all in
  let rows =
    List.map
      (fun (s : Rme.Spec.t) ->
        let ff = List.map (fun n -> (float_of_int n, avg_max_rmr s.key (cfg ~n scenario_none))) ns in
        let vf =
          List.map (fun f -> (float_of_int f, avg_max_rmr s.key (cfg ~n:32 (scenario_f f)))) fs
        in
        let limited =
          List.map (fun n -> (float_of_int n, avg_max_rmr s.key (cfg ~n (scenario_f 4)))) ns
        in
        let arb =
          List.map (fun n -> (float_of_int n, avg_max_rmr s.key (cfg ~n (scenario_f 64)))) ns
        in
        let c =
          Rme.Report.classify_lock ~failure_free_vs_n:ff ~rmr_vs_f:vf ~limited_vs_n:limited
            ~arbitrary_vs_n:arb
        in
        [
          s.key;
          Fmt.str "%a" Rme.Report.pp_growth (Rme.Report.classify ff);
          Fmt.str "%a" Rme.Report.pp_growth (Rme.Report.classify vf);
          Fmt.str "%a" Rme.Report.pp_growth (Rme.Report.classify arb);
          Rme.Report.adaptivity_name c;
          Rme.Report.boundedness_name c;
        ])
      keys
  in
  table
    ~header:[ "lock"; "ff vs n"; "rmr vs F"; "F=64 vs n"; "adaptivity"; "boundedness" ]
    ~rows;
  Fmt.pr
    "@.(paper's Table 2: BA-Lock is the only well-bounded super-adaptive RME@.\
     lock; wr is weakly recoverable and ramaraju needs a non-standard atomic@.\
     instruction, so those two rows sit outside the paper's comparison)@."

(* ------------------------------------------------------------------ *)
(* Figure 1: sub-queues                                                 *)
(* ------------------------------------------------------------------ *)

let fig1 () =
  Fmt.pr "@.=== Figure 1: sub-queue formation in WR-Lock ===@.@.";
  let crash =
    Crash.all
      [
        Crash.on_kind ~pid:4 ~kind:Api.Fas ~occurrence:0 Crash.After;
        Crash.on_kind ~pid:7 ~kind:Api.Fas ~occurrence:0 Crash.After;
      ]
  in
  let internals = ref None in
  let snapshot = ref None in
  let cs ~pid:_ = for _ = 1 to 80 do Api.yield () done in
  let res =
    Engine.run ~n:9 ~model:Memory.CC ~sched:(Sched.round_robin ()) ~crash
      ~setup:(fun ctx ->
        let t = Wr_lock.create ctx in
        internals := Some t;
        Wr_lock.lock t)
      ~body:(fun lock ~pid ->
        if pid = 8 then begin
          if !snapshot = None then begin
            for _ = 1 to 30 do Api.yield () done;
            snapshot := Some (Wr_lock.subqueues (Option.get !internals))
          end
        end
        else Harness.standard_body ~cs ~lock ~requests:1 pid)
      ()
  in
  let t = Option.get !internals in
  (match !snapshot with
  | Some chains ->
      List.iteri
        (fun i chain ->
          Fmt.pr "  sub-queue %d: %s@." (i + 1)
            (String.concat " -> "
               (List.map (fun nd -> Printf.sprintf "p%d" (Wr_lock.owner_of_node t nd)) chain)))
        chains;
      Fmt.pr "  (%d sub-queues; paper's figure: 3)@." (List.length chains)
  | None -> Fmt.pr "  no snapshot@.");
  Fmt.pr "  all requests still satisfied afterwards: %b@." (Engine.total_completed res = 8)

(* ------------------------------------------------------------------ *)
(* Figures 2-3: framework flow / escalation funnel                      *)
(* ------------------------------------------------------------------ *)

let fig23 () =
  Fmt.pr "@.=== Figures 2-3: fast/slow path flow and level escalation ===@.@.";
  let funnel f =
    let c = { (cfg ~n:16 (if f = 0 then scenario_none else scenario_f f)) with record = true } in
    let res = Rme.Workload.run_key "ba-jjj" c in
    let tbl = Hashtbl.create 8 in
    List.iter
      (function
        | Event.Note { note = Event.Path (level, fast); _ } ->
            let fa, sl = try Hashtbl.find tbl level with Not_found -> (0, 0) in
            Hashtbl.replace tbl level (if fast then (fa + 1, sl) else (fa, sl + 1))
        | _ -> ())
      res.Engine.events;
    List.sort compare (Hashtbl.fold (fun l v acc -> (l, v) :: acc) tbl [])
  in
  List.iter
    (fun f ->
      Fmt.pr "  F = %-3d:" f;
      List.iter (fun (l, (fa, sl)) -> Fmt.pr "  L%d %d/%d" l fa sl) (funnel f);
      Fmt.pr "   (Lk fast/slow)@.")
    [ 0; 4; 16; 64 ]

(* ------------------------------------------------------------------ *)
(* Adaptivity: RMR vs F, the headline curve                             *)
(* ------------------------------------------------------------------ *)

let adaptivity () =
  Fmt.pr "@.=== Theorems 5.18/5.19: RMR vs F for BA-Lock (n = 32) ===@.";
  let fs = [ 1; 2; 4; 8; 16; 32; 64; 128 ] in
  let curve key =
    List.map
      (fun f ->
        ( float_of_int f,
          (measure key (cfg ~n:32 ~requests:12 (scenario_f f))).Rme.Workload.max_rmr ))
      fs
  in
  let ba = curve "ba-jjj" in
  Rme.Report.series ~title:"ba-jjj: worst passage RMRs vs F" ~xlabel:"F" ~ylabel:"max RMR" ba;
  Fmt.pr "@.fitted growth exponent of BA-Lock in F: %.2f (sqrt F would be 0.50)@."
    (Rme.Report.fit_exponent ba);
  let ceiling = (measure "jjj" (cfg ~n:32 scenario_none)).Rme.Workload.max_rmr in
  Fmt.pr "base-lock ceiling (jjj, n = 32): %.0f — BA stays below min{sqrt F, T(n)} + O(levels)@."
    ceiling;
  Fmt.pr "@.max level vs F (Theorem 5.17: level <= 1 + sqrt(2F)):@.";
  List.iter
    (fun f ->
      let m = measure "ba-jjj" (cfg ~n:32 ~requests:12 (scenario_f f)) in
      let bound = 1.0 +. Float.ceil (sqrt (2.0 *. float_of_int f)) in
      Fmt.pr "  F=%-4d level=%d (bound %.0f)@." f m.Rme.Workload.max_level bound)
    fs

(* ------------------------------------------------------------------ *)
(* Batch failures (§7.1)                                                *)
(* ------------------------------------------------------------------ *)

let batch () =
  Fmt.pr "@.=== §7.1: batch failures vs individual failures (n = 16) ===@.@.";
  let run_scenario scenario =
    measure "ba-jjj" (cfg ~n:16 ~requests:12 scenario)
  in
  let rows =
    List.map
      (fun (label, scenario) ->
        let m = run_scenario scenario in
        [
          label;
          string_of_int m.Rme.Workload.crashes;
          fmt_f m.Rme.Workload.max_rmr;
          string_of_int m.Rme.Workload.max_level;
          string_of_bool m.Rme.Workload.satisfied;
        ])
      [
        ("no failures", scenario_none);
        ("1 batch of 16 (system-wide)", Rme.Workload.Batch { size = 16; at_step = 400; repeat = 1; gap = 0 });
        ("4 batches of 16", Rme.Workload.Batch { size = 16; at_step = 400; repeat = 4; gap = 1500 });
        ("16 individual unsafe failures", scenario_f 16);
        ("64 individual unsafe failures", scenario_f 64);
      ]
  in
  table ~header:[ "scenario"; "crashes"; "max RMR"; "max level"; "satisfied" ] ~rows;
  Fmt.pr
    "@.(Corollary 7.2: cost O(min{Fb + sqrt F, log n/log log n}) — batches are@.\
     absorbed with far less escalation than the same number of unsafe failures)@."

(* ------------------------------------------------------------------ *)
(* Memory reclamation (§7.2)                                            *)
(* ------------------------------------------------------------------ *)

let reclaim () =
  Fmt.pr "@.=== §7.2: node allocation, unbounded vs reclaimed (n = 6) ===@.@.";
  let count key requests =
    let reg = ref None in
    let res =
      Engine.run ~n:6 ~model:Memory.CC ~sched:(Sched.random ~seed:3)
        ~crash:(Crash.random ~seed:4 ~rate:0.002 ~max_crashes:8 ())
        ~setup:(fun ctx ->
          match key with
          | `Fresh ->
              let t = Wr_lock.create ctx in
              reg := Some (Wr_lock.registry t);
              Wr_lock.lock t
          | `Pooled ->
              let r = Reclaim.create ctx in
              let t =
                Wr_lock.create ~name:"wrr" ~alloc:(Reclaim.alloc r)
                  ~retire:(fun ~pid -> Reclaim.retire r ~pid)
                  ctx
              in
              reg := Some (Wr_lock.registry t);
              Wr_lock.lock t)
        ~body:(fun lock ~pid -> Harness.standard_body ~lock ~requests pid)
        ()
    in
    (Nodes.count (Option.get !reg), Engine.total_completed res)
  in
  let rows =
    List.concat_map
      (fun requests ->
        let fresh, _ = count `Fresh requests in
        let pooled, _ = count `Pooled requests in
        [
          [
            string_of_int (6 * requests);
            string_of_int fresh;
            string_of_int pooled;
            "4n^2 = 144";
          ];
        ])
      [ 10; 40; 160 ]
  in
  table ~header:[ "requests"; "nodes (fresh alloc)"; "nodes (pooled)"; "bound" ] ~rows;
  Fmt.pr "@.(space per lock is bounded by two pools of 2n nodes per process)@."

(* ------------------------------------------------------------------ *)
(* §7.3 ablation: last-known-level restart                              *)
(* ------------------------------------------------------------------ *)

let ablation () =
  Fmt.pr "@.=== §7.3: restart from last known level (ablation) ===@.@.";
  let run key =
    let crash =
      Crash.all
        [
          Crash.fas_gap ~seed:2 ~rate:0.4 ~max_crashes:24 ~cell_suffix:".tail" ();
          (* a crash-prone victim that keeps failing inside its super-passage *)
          Crash.random ~seed:3 ~rate:0.01 ~max_crashes:12 ~pids:[ 1 ] ();
        ]
    in
    let res =
      Harness.run_lock
        ~cs:(fun ~pid:_ -> for _ = 1 to 6 do Api.yield () done)
        ~n:16 ~model:Memory.CC ~sched:(Sched.random ~seed:4) ~crash ~requests:10
        ~make:(Rme.Spec.find_exn key).Rme.Spec.make ()
    in
    (Engine.max_rmr_super res, Engine.avg_rmr_super res, Engine.total_completed res)
  in
  let m1, a1, c1 = run "ba-jjj" in
  let m2, a2, c2 = run "ba-jjj-tracked" in
  table
    ~header:[ "variant"; "max RMR/super-passage"; "avg RMR/super-passage"; "completed" ]
    ~rows:
      [
        [ "ba-jjj (re-walk levels)"; string_of_int m1; Printf.sprintf "%.1f" a1; string_of_int c1 ];
        [ "ba-jjj-tracked (§7.3)"; string_of_int m2; Printf.sprintf "%.1f" a2; string_of_int c2 ];
      ];
  Fmt.pr "@.(tracking turns O(F0 * sqrt F) super-passages into O(F0 + sqrt F))@."

(* ------------------------------------------------------------------ *)
(* Ablation: branching factor of the arbitration tree                   *)
(* ------------------------------------------------------------------ *)

let branching () =
  Fmt.pr "@.=== Ablation: branching factor k of the base-lock tree (n = 64) ===@.@.";
  let rows =
    List.map
      (fun k ->
        let make ctx = Rme_locks.Jjj_tree.make_named ~k ~name:(Printf.sprintf "jjj-k%d" k) ctx in
        let res =
          Harness.run_lock ~n:64 ~model:Memory.CC ~sched:(Sched.random ~seed:5)
            ~crash:Crash.none ~requests:6 ~make ()
        in
        [
          string_of_int k;
          string_of_int (Engine.max_rmr res);
          Printf.sprintf "%.1f" (Engine.avg_rmr res);
        ])
      [ 2; 3; 4; 8; 16 ]
  in
  table ~header:[ "k"; "max RMR"; "avg RMR" ] ~rows;
  Fmt.pr
    "@.(k = 2 degenerates to the binary tournament.  In our kport substitution@.\
     (DESIGN.md S1) the per-node cost is k-independent because the atomic@.\
     FAS-and-persist makes recovery O(1), so larger k helps monotonically;@.\
     the real JJJ k-port lock pays O(k) on recovery, which is why the paper@.\
     balances the tree at k = ceil(log n / log log n) = %d.)@."
    (Rme_locks.Jjj_tree.branching_for 64)

(* ------------------------------------------------------------------ *)
(* Scale: the sub-logarithmic separation at large n                     *)
(* ------------------------------------------------------------------ *)

let scale () =
  Fmt.pr "@.=== Scale: tournament O(log n) vs jjj O(log n/log log n) ===@.@.";
  let ns = [ 16; 64; 256; 1024 ] in
  let row key =
    key
    :: List.map
         (fun n ->
           let res =
             Harness.run_lock ~n ~model:Memory.CC ~sched:(Sched.random ~seed:5)
               ~crash:Crash.none ~requests:4
               ~make:(Rme.Spec.find_exn key).Rme.Spec.make ~max_steps:20_000_000 ()
           in
           string_of_int (Engine.max_rmr res))
         ns
  in
  table
    ~header:("lock" :: List.map (fun n -> Printf.sprintf "n=%d" n) ns)
    ~rows:[ row "tournament"; row "jjj"; row "ba-jjj"; row "wr" ];
  Fmt.pr "@.(depths at n=1024: tournament %d, jjj %d)@."
    (Rme_locks.Tournament.levels_for 1024)
    (Rme_locks.Jjj_tree.depth_for 1024)

(* ------------------------------------------------------------------ *)
(* Space: shared cells per lock instance                                 *)
(* ------------------------------------------------------------------ *)

let space () =
  Fmt.pr "@.=== Space: shared-memory cells per lock (static + after a run) ===@.@.";
  let ns = [ 4; 16; 64 ] in
  let cells key n =
    let memr = ref None in
    let (_ : Engine.result) =
      Engine.run ~n ~model:Memory.CC ~sched:(Sched.random ~seed:3) ~crash:Crash.none
        ~setup:(fun ctx ->
          let mem = Engine.Ctx.memory ctx in
          let lock = (Rme.Spec.find_exn key).Rme.Spec.make ctx in
          memr := Some (mem, Memory.cell_count mem);
          lock)
        ~body:(fun lock ~pid -> Harness.standard_body ~lock ~requests:6 pid)
        ()
    in
    let mem, static = Option.get !memr in
    (static, Memory.cell_count mem)
  in
  let rows =
    List.map
      (fun key ->
        key
        :: List.concat_map
             (fun n ->
               let s, d = cells key n in
               [ string_of_int s; string_of_int d ])
             ns)
      [ "wr"; "wr-reclaim"; "tournament"; "jjj"; "ba-jjj" ]
  in
  table
    ~header:
      ("lock"
      :: List.concat_map (fun n -> [ Printf.sprintf "static n=%d" n; "after run" ]) ns)
    ~rows;
  Fmt.pr
    "@.(wr allocates fresh nodes per request — unbounded growth; wr-reclaim@.\
     caps at the 4n^2-node pools plus O(n^2) reclamation metadata, the@.\
     O(n^2 T(n)) bound of section 7.2 once stacked across BA's levels)@."

(* ------------------------------------------------------------------ *)
(* Anatomy: where the RMRs come from                                    *)
(* ------------------------------------------------------------------ *)

let anatomy () =
  Fmt.pr "@.=== Anatomy: RMRs by instruction kind (n = 16, failure-free) ===@.@.";
  let kinds = Api.[ Read; Write; Cas; Fas; Faa; Spin ] in
  let rows =
    List.map
      (fun key ->
        let res = Rme.Workload.run_key key (cfg ~n:16 ~requests:8 scenario_none) in
        let pct kind =
          match List.assoc_opt kind res.Engine.rmr_by_kind with
          | Some v -> Printf.sprintf "%d%%" (100 * v / max 1 res.Engine.total_rmr)
          | None -> "-"
        in
        (key :: string_of_int res.Engine.total_rmr :: List.map pct kinds))
      [ "wr"; "tas"; "bakery"; "tournament"; "jjj"; "ba-jjj" ]
  in
  table
    ~header:
      ([ "lock"; "total" ]
      @ List.map (fun k -> Fmt.str "%a" Api.pp_kind k) kinds)
    ~rows;
  Fmt.pr
    "@.(the queue locks pay mostly writes + one FAS per passage; bakery is@.\
     read-dominated scans; tas burns spin refetches under contention)@."

(* ------------------------------------------------------------------ *)
(* Fairness: passage latency distribution                               *)
(* ------------------------------------------------------------------ *)

let fairness () =
  Fmt.pr "@.=== Fairness: passage latency (engine steps), n = 16 ===@.@.";
  let row key scenario label =
    let res = Rme.Workload.run_key key (cfg ~n:16 ~requests:12 scenario) in
    let m = Rme.Workload.measure res in
    let ls = Engine.latencies res in
    [
      key;
      label;
      string_of_int (Engine.percentile ls 0.5);
      string_of_int (Engine.percentile ls 0.9);
      string_of_int (Engine.percentile ls 0.99);
      string_of_int (Engine.percentile ls 1.0);
      Printf.sprintf "%.1f" m.Rme.Workload.throughput;
    ]
  in
  table
    ~header:[ "lock"; "scenario"; "p50"; "p90"; "p99"; "max"; "req/kstep" ]
    ~rows:
      (List.concat_map
         (fun key -> [ row key scenario_none "ff"; row key (scenario_f 16) "F=16" ])
         [ "wr"; "tournament"; "jjj"; "sa-bakery"; "ba-jjj" ]);
  Fmt.pr
    "@.(WR-Lock and the queue-based trees hand over FCFS-ish: tight latency@.\
     tails; failures add recovery detours but the BA tail stays bounded)@."

(* ------------------------------------------------------------------ *)
(* Figures: SVG renderings of the headline curves                       *)
(* ------------------------------------------------------------------ *)

let figures () =
  let dir = "figures" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Fmt.pr "@.=== Writing SVG figures to %s/ ===@.@." dir;
  let fs = [ 1; 2; 4; 8; 16; 32; 64; 128 ] in
  let curve key =
    {
      Rme.Svg_chart.label = key;
      points =
        List.map
          (fun f ->
            ( float_of_int f,
              (measure key (cfg ~n:32 ~requests:12 (scenario_f f))).Rme.Workload.max_rmr ))
          fs;
    }
  in
  Rme.Svg_chart.write
    ~path:(Filename.concat dir "adaptivity.svg")
    ~log_x:true ~title:"Worst passage RMRs vs F (n = 32)" ~xlabel:"F (unsafe failures)"
    ~ylabel:"max RMR"
    [ curve "ba-jjj"; curve "sa-bakery"; curve "jjj" ];
  Fmt.pr "  figures/adaptivity.svg@.";
  let ns = [ 4; 8; 16; 32; 64; 128; 256 ] in
  let scale_curve key =
    {
      Rme.Svg_chart.label = key;
      points =
        List.map
          (fun n ->
            let res =
              Harness.run_lock ~n ~model:Memory.CC ~sched:(Sched.random ~seed:5)
                ~crash:Crash.none ~requests:4
                ~make:(Rme.Spec.find_exn key).Rme.Spec.make ~max_steps:20_000_000 ()
            in
            (float_of_int n, float_of_int (Engine.max_rmr res)))
          ns;
    }
  in
  Rme.Svg_chart.write
    ~path:(Filename.concat dir "scale.svg")
    ~log_x:true ~title:"Failure-free worst passage RMRs vs n" ~xlabel:"n (processes)"
    ~ylabel:"max RMR"
    [ scale_curve "tournament"; scale_curve "jjj"; scale_curve "ba-jjj"; scale_curve "wr" ];
  Fmt.pr "  figures/scale.svg@."

(* ------------------------------------------------------------------ *)
(* Adversarial probing: search for worst-case passages                  *)
(* ------------------------------------------------------------------ *)

let adversary () =
  Fmt.pr "@.=== Adversarial probe: hill-climbing crash plans against ba-jjj ===@.@.";
  let n = 8 and requests = 8 in
  let rng = Random.State.make [| 0xadbe |] in
  let eval plan_tuples =
    let crash =
      Crash.all
        (List.map
           (fun (pid, nth, after) ->
             Crash.at_op ~pid ~nth (if after then Crash.After else Crash.Before))
           plan_tuples)
    in
    let res =
      Harness.run_lock
        ~cs:(fun ~pid:_ -> for _ = 1 to 6 do Api.yield () done)
        ~n ~model:Memory.CC ~sched:(Sched.random ~seed:5) ~crash ~requests
        ~make:(Rme.Spec.find_exn "ba-jjj").Rme.Spec.make ~max_steps:3_000_000 ()
    in
    if Rme.Check.Props.all_satisfied res ~n ~requests && res.Engine.cs_max <= 1 then
      Engine.max_rmr res
    else -1 (* liveness or safety violation would be a bug, not a score *)
  in
  let random_tuple () =
    (Random.State.int rng n, Random.State.int rng 400, Random.State.bool rng)
  in
  let mutate plan =
    match (plan, Random.State.int rng 3) with
    | [], _ | _, 0 -> random_tuple () :: plan
    | _ :: rest, 1 -> random_tuple () :: rest
    | p, _ -> List.tl p
  in
  let best_plan = ref [] in
  let best = ref (eval []) in
  let violations = ref 0 in
  for _restart = 1 to 6 do
    let plan = ref [ random_tuple () ] in
    for _step = 1 to 40 do
      let candidate = mutate !plan in
      let score = eval candidate in
      if score < 0 then incr violations;
      if score > !best then begin
        best := score;
        best_plan := candidate;
        plan := candidate
      end
      else if score >= eval !plan then plan := candidate
    done
  done;
  Fmt.pr "baseline (no crashes):    %d RMRs@." (eval []);
  Fmt.pr "worst found (%d crashes): %d RMRs@." (List.length !best_plan) !best;
  Fmt.pr "safety/liveness failures during the search: %d (must be 0)@." !violations;
  let levels = Rme_locks.Tournament.levels_for n in
  Fmt.pr "theory ceiling: O(levels + base) with %d levels — the adversary cannot@." levels;
  Fmt.pr "push a passage past the recursion depth no matter where it crashes.@.";
  if !violations > 0 then exit 1

(* ------------------------------------------------------------------ *)
(* Gc allocation differential: the fast path's regression gate          *)
(* ------------------------------------------------------------------ *)

let gc_bench () =
  Fmt.pr "@.=== Gc: engine fast path vs fully instrumented ===@.@.";
  (* One closed-loop workload (8 WR-Lock clients, 500 requests each) run
     under the two extreme engine modes.  The gate pins the fast path's
     contract — at least 2x the passages/sec of the fully instrumented
     engine at no more than half the minor words per passage — so an
     accidental allocation or bookkeeping step creeping back into the hot
     loop fails CI instead of silently eroding the headline numbers. *)
  let n = 8 and requests = 500 in
  let body lock ~pid = Harness.standard_body ~lock ~requests pid in
  let run ~mode ~record ~trace_ops () =
    Engine.run ~mode ~record ~trace_ops ~max_steps:10_000_000 ~n ~model:Memory.CC
      ~sched:(Sched.random ~seed:11) ~crash:Crash.none ~setup:Wr_lock.make ~body ()
  in
  (* The two modes must also agree on every result field: the fast path is
     an elision of bookkeeping nobody asked for, never a semantic change. *)
  let fast_res = run ~mode:`Fast ~record:false ~trace_ops:false () in
  let full_res = run ~mode:`Full ~record:false ~trace_ops:false () in
  if fast_res <> full_res then begin
    Fmt.epr "gc bench: `Fast and `Full disagree on the same schedule@.";
    exit 1
  end;
  let measure ~mode ~record ~trace_ops =
    ignore (run ~mode ~record ~trace_ops ());
    let best_dt = ref infinity and best_alloc = ref infinity in
    let passages = ref 0 in
    for _ = 1 to 5 do
      let m0 = Gc.minor_words () in
      let t0 = Unix.gettimeofday () in
      let res = run ~mode ~record ~trace_ops () in
      let dt = Unix.gettimeofday () -. t0 in
      let alloc = Gc.minor_words () -. m0 in
      passages := List.length (Engine.completed_passages res);
      if dt < !best_dt then best_dt := dt;
      if alloc < !best_alloc then best_alloc := alloc
    done;
    (!best_dt, !best_alloc, !passages)
  in
  let full_dt, full_alloc, full_p = measure ~mode:`Full ~record:true ~trace_ops:true in
  let fast_dt, fast_alloc, fast_p = measure ~mode:`Fast ~record:false ~trace_ops:false in
  let row label dt alloc p =
    [
      label;
      string_of_int p;
      Printf.sprintf "%.3f s" dt;
      Printf.sprintf "%.0f" (float_of_int p /. dt);
      Printf.sprintf "%.0f" (alloc /. float_of_int (max 1 p));
    ]
  in
  table
    ~header:[ "engine"; "passages"; "best of 5"; "passages/s"; "minor words/passage" ]
    ~rows:
      [
        row "fast (`Fast, drop sink)" fast_dt fast_alloc fast_p;
        row "instrumented (`Full, record+trace)" full_dt full_alloc full_p;
      ];
  let speedup = full_dt /. fast_dt in
  let alloc_ratio =
    fast_alloc /. float_of_int (max 1 fast_p)
    /. (full_alloc /. float_of_int (max 1 full_p))
  in
  Fmt.pr "@.speedup %.2fx (gate: >= 2.0), allocation ratio %.3f (gate: <= 0.5)@." speedup
    alloc_ratio;
  if speedup < 2.0 || alloc_ratio > 0.5 then begin
    Fmt.epr "gc bench: fast-path regression gate FAILED@.";
    exit 1
  end;
  Fmt.pr "fast-path regression gate passed@."

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("table1", table1);
    ("table2", table2);
    ("fig1", fig1);
    ("fig23", fig23);
    ("adaptivity", adaptivity);
    ("batch", batch);
    ("reclaim", reclaim);
    ("ablation", ablation);
    ("branching", branching);
    ("scale", scale);
    ("space", space);
    ("anatomy", anatomy);
    ("fairness", fairness);
    ("adversary", adversary);
    ("gc", gc_bench);
    ("figures", figures);
  ]

let () =
  let usage fmt =
    Fmt.kstr
      (fun msg ->
        Fmt.epr "bench: %s@.usage: main.exe [--csv DIR] [EXPERIMENT...]@.\
                 experiments (all of them, in this order, when none is named):@.  %s@."
          msg
          (String.concat " " (List.map fst experiments));
        exit 2)
      fmt
  in
  let rec parse acc = function
    | [ "--csv" ] -> usage "--csv needs a directory"
    | "--csv" :: dir :: rest ->
        csv_dir := Some dir;
        parse acc rest
    | name :: rest -> (
        match List.assoc_opt name experiments with
        | Some f -> parse (f :: acc) rest
        | None -> usage "unknown experiment %S" name)
    | [] -> List.rev acc
  in
  let chosen =
    match parse [] (List.tl (Array.to_list Sys.argv)) with
    | [] -> List.map snd experiments
    | fs -> fs
  in
  Option.iter (fun dir -> if not (Sys.file_exists dir) then Sys.mkdir dir 0o755) !csv_dir;
  List.iter (fun f -> f ()) chosen
