(* Bench harness: regenerates every table and figure of the paper (see
   DESIGN.md section 4 for the experiment index) from the simulator, then
   runs a Bechamel wall-clock suite over the same workloads.

     dune exec bench/main.exe            # everything
     dune exec bench/main.exe table1     # one experiment
     (experiments: table1 table2 fig1 fig23 adaptivity batch reclaim
                   ablation branching scale space anatomy fairness
                   adversary explore gc sweep figures bechamel)

   Absolute numbers are simulator RMR counts, not hardware cycles; the
   claims under reproduction are the *shapes* (who is flat, who grows like
   sqrt F, where the ceilings sit). *)

open Rme_sim
open Rme_locks

let fmt_f x = Printf.sprintf "%.0f" x

(* Every BENCH_*.json opens with the same provenance header, so a result
   file always says what machine produced it: enough to interpret throughput
   and domain-scaling numbers without the machine at hand. *)
let host_json () =
  Printf.sprintf
    {|{"recommended_domain_count": %d, "ocaml_version": %S, "word_size": %d, "int_size": %d, "os_type": %S}|}
    (Domain.recommended_domain_count ())
    Sys.ocaml_version Sys.word_size Sys.int_size Sys.os_type

let json_header buf experiment =
  Printf.bprintf buf "{\n  \"experiment\": %S,\n  \"host\": %s,\n" experiment (host_json ())

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
(* Parallel explorer throughput                                         *)
(* ------------------------------------------------------------------ *)

let explore_bench () =
  Fmt.pr "@.=== Explorer throughput: sequential DFS vs checkpointed parallel search ===@.@.";
  (* Three processes, two WR-Lock requests each: a schedule tree far larger
     than the budget, so every configuration visits exactly [max_runs] runs
     and the wall-clock ratio measures the work done per run.  POR is off
     on purpose — this section isolates the engine, not the pruning.  The
     parallel rows resume every subtree from the nearest engine checkpoint
     instead of replaying its decision prefix live, so they do strictly
     less work per run than the sequential DFS; that algorithmic saving is
     what the speedup column certifies, which is why it already shows up
     at domains=1 and survives on single-core hosts (where Pool clamps the
     worker count to the hardware and domain parallelism contributes
     nothing). *)
  let check res =
    if res.Engine.cs_max > 1 then Some "ME violation"
    else if res.Engine.deadlocked then Some "deadlock"
    else None
  in
  let body lock ~pid = Rme_sim.Harness.standard_body ~lock ~requests:2 pid in
  let crash () = Crash.none in
  let max_runs = 4_000 in
  let run_case ?stats = function
    | None ->
        Rme_check.Explore.explore ?stats ~por:`Off ~max_runs ~max_steps:4_000
          ~shrink_violations:false ~n:3 ~model:Memory.CC ~crash ~setup:Wr_lock.make ~body ~check
          ()
    | Some domains ->
        Rme_check.Explore.explore_parallel ?stats ~por:`Off ~snap_gap:8 ~domains ~max_runs
          ~max_steps:4_000 ~shrink_violations:false ~n:3 ~model:Memory.CC ~crash
          ~setup:Wr_lock.make ~body ~check ()
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let divergence = ref false in
  (* Warm up allocators/code paths, and fix the reference outcome every
     configuration must reproduce byte-for-byte. *)
  let ref_stats = ref None in
  let reference = run_case ~stats:(fun s -> ref_stats := Some s) None in
  (match !ref_stats with
  | Some s -> Fmt.pr "search effort (sequential): %a@.@." Rme_check.Explore.pp_search_stats s
  | None -> ());
  let cases =
    [ ("sequential", None); ("domains=1", Some 1); ("domains=2", Some 2); ("domains=4", Some 4) ]
  in
  (* Wall-clock noise on shared runners dwarfs the effect under test (the
     same binary's sequential baseline has been observed drifting 30%
     between back-to-back runs), so every round re-times every case and
     each case keeps its best round: the ratio of two minima is far more
     stable than any single reading. *)
  let rounds = 7 in
  let best = Array.make (List.length cases) infinity in
  for _ = 1 to rounds do
    List.iteri
      (fun i (label, domains) ->
        let o, dt = time (fun () -> run_case domains) in
        if dt < best.(i) then best.(i) <- dt;
        if o <> reference then begin
          divergence := true;
          Fmt.pr "DIVERGENCE on %s:@.  expected: %a@.  got:      %a@." label
            Rme_check.Explore.pp_outcome reference Rme_check.Explore.pp_outcome o
        end)
      cases
  done;
  let throughput =
    List.mapi
      (fun i (label, _) ->
        let dt = best.(i) in
        ( label,
          reference.Rme_check.Explore.runs,
          dt,
          float_of_int reference.Rme_check.Explore.runs /. dt,
          best.(0) /. dt ))
      cases
  in
  table
    ~header:[ "explorer"; "runs"; "best of 7"; "runs/s"; "speedup" ]
    ~rows:
      (List.map
         (fun (label, runs, dt, rate, speedup) ->
           [
             label;
             string_of_int runs;
             Printf.sprintf "%.3f s" dt;
             Printf.sprintf "%.0f" rate;
             Printf.sprintf "%.2fx" speedup;
           ])
         throughput);
  Fmt.pr "@.(same schedule tree, same budget, byte-identical outcomes; the parallel@.\
          explorer splits the frontier into tasks, restarts each subtree from the@.\
          nearest checkpoint, and work-steals across domains — the speedup is@.\
          algorithmic, from replay avoided, so it holds at every domain count)@.";
  let cores = Domain.recommended_domain_count () in
  Fmt.pr "@.hardware parallelism: %d@." cores;
  if cores < 2 then
    Fmt.pr "NOTE: single-core host — Pool clamps spawned workers to the hardware@.\
            (oversubscribed OCaml domains only add stop-the-world GC barriers), so@.\
            all rows above run one worker and the speedup is checkpointing alone;@.\
            domain parallelism adds its factor on multi-core machines.@.";
  let speedup_at label =
    List.fold_left (fun acc (l, _, _, _, s) -> if l = label then s else acc) 0.0 throughput
  in
  let gate_fail = speedup_at "domains=2" < 1.0 in
  if gate_fail then
    Fmt.pr "@.FAIL: domains=2 is slower than the sequential explorer (%.2fx < 1.00x)@."
      (speedup_at "domains=2");
  (* --- partial-order reduction: `Off vs `Sleep vs `Source ----------- *)
  Fmt.pr "@.=== POR tiers: plain vs sleep sets vs source-set DPOR ===@.@.";
  (* Three-way A/B.  Where a search can finish (exhaust or stop at a
     violation) its outcome is compared against every other tier that also
     finished; divergence is only declared where a comparison is
     conclusive — differing violations, or a violation / non-exhaustion
     that another tier's completed search rules out.  The headline
     reduction factor compares `Source against the best tier that actually
     exhausted: the plain search where it can finish at all, else the
     sleep-set search, else (as a 4x-budget lower bound) the truncated
     plain search. *)
  let divergence = ref false in
  let overhead_fail = ref false in
  let reduction_case (name, run_one, por_cap) =
    let source, source_dt = time (fun () -> run_one ~por:`Source ~max_runs:por_cap) in
    let sleep, sleep_dt = time (fun () -> run_one ~por:`Sleep ~max_runs:por_cap) in
    let plain_cap =
      if source.Rme_check.Explore.exhausted || sleep.Rme_check.Explore.exhausted then
        max (4 * max source.Rme_check.Explore.runs sleep.Rme_check.Explore.runs) 10_000
      else por_cap
    in
    let plain, plain_dt = time (fun () -> run_one ~por:`Off ~max_runs:plain_cap) in
    (* Pairwise verdict comparison: [conclusive, identical]. *)
    (* [witness]: compare the full violation including the shrunk witness
       (off vs sleep, strict preorder on both sides); pairs involving
       `Source compare the message only — the demand-driven order may
       surface a different witness of the same failure (explore.mli). *)
    let compare_pair ~witness (p : Rme_check.Explore.outcome) (q : Rme_check.Explore.outcome) =
      match (p.Rme_check.Explore.violation, q.Rme_check.Explore.violation) with
      | Some pv, Some qv -> (true, if witness then pv = qv else fst pv = fst qv)
      | None, Some _ -> (p.Rme_check.Explore.exhausted, not p.Rme_check.Explore.exhausted)
      | Some _, None -> (q.Rme_check.Explore.exhausted, not q.Rme_check.Explore.exhausted)
      | None, None ->
          if p.Rme_check.Explore.exhausted || q.Rme_check.Explore.exhausted then (true, true)
          else (false, false)
    in
    let pairs =
      [
        ("off/source", false, plain, source);
        ("sleep/source", false, sleep, source);
        ("off/sleep", true, plain, sleep);
      ]
    in
    let identical = ref true in
    let any_conclusive = ref false in
    List.iter
      (fun (pair, witness, p, q) ->
        let conclusive, same = compare_pair ~witness p q in
        if conclusive then any_conclusive := true;
        if conclusive && not same then begin
          identical := false;
          divergence := true;
          Fmt.pr "DIVERGENCE on %s (%s):@.  %a@.  vs %a@." name pair
            Rme_check.Explore.pp_outcome p Rme_check.Explore.pp_outcome q
        end)
      pairs;
    if not !any_conclusive then
      Fmt.pr "WARNING: %s is inconclusive — no tier finished within its budget.@." name;
    (* Reduced tiers pay footprint collection per run; on unreduced
       subjects (equal run counts) that overhead must stay under 10% —
       the root probe keeps the first, often decisive, run
       footprint-free.  Violation-stopped rows are exempt: there the
       whole search is a handful of instrumented runs (wr-gap-me-n3:
       83 runs, ~10 ms), below any stable noise floor, and the probe
       already removes the cost entirely when the default schedule
       itself violates. *)
    if
      source.Rme_check.Explore.runs = plain.Rme_check.Explore.runs
      && plain.Rme_check.Explore.violation = None
      && plain_dt > 0.02
      && source_dt > 1.1 *. plain_dt
    then begin
      overhead_fail := true;
      Fmt.pr "OVERHEAD on %s: source %.4fs vs plain %.4fs at equal runs (> 10%%)@." name source_dt
        plain_dt
    end;
    let baseline, baseline_runs, baseline_exhausted =
      if plain.Rme_check.Explore.exhausted then ("off", plain.Rme_check.Explore.runs, true)
      else if sleep.Rme_check.Explore.exhausted then ("sleep", sleep.Rme_check.Explore.runs, true)
      else ("off", plain.Rme_check.Explore.runs, false)
    in
    let factor =
      float_of_int baseline_runs /. float_of_int (max 1 source.Rme_check.Explore.runs)
    in
    ( name,
      plain.Rme_check.Explore.runs,
      sleep.Rme_check.Explore.runs,
      source.Rme_check.Explore.runs,
      plain_dt,
      sleep_dt,
      source_dt,
      factor,
      baseline,
      (not baseline_exhausted) && source.Rme_check.Explore.exhausted,
      !identical,
      source.Rme_check.Explore.exhausted )
  in
  (* Splitter one-shot: the only real-lock tree small enough for the plain
     search to enumerate completely — the exact-factor, both-exhausted
     case. *)
  let splitter_body sp ~pid =
    Api.note (Rme_sim.Event.Seg Rme_sim.Event.Req_begin);
    (if Rme_locks.Splitter.try_fast sp ~pid then begin
       Api.note (Rme_sim.Event.Seg Rme_sim.Event.Cs_begin);
       Api.yield ();
       Api.note (Rme_sim.Event.Seg Rme_sim.Event.Cs_end);
       Rme_locks.Splitter.release sp ~pid
     end);
    Api.note (Rme_sim.Event.Seg Rme_sim.Event.Req_done)
  in
  let splitter ~por ~max_runs =
    Rme_check.Explore.explore ~por ~max_runs ~max_steps:4_000 ~n:2 ~model:Memory.CC ~crash
      ~setup:Rme_locks.Splitter.create ~body:splitter_body ~check ()
  in
  (* WR-Lock ME at n=2 / SA stack (sa-jjj) ME at n=2: POR exhausts trees the
     plain search provably cannot cover in 4x the runs.  One request per
     process — the two-request throughput subject above has a tree too deep
     for even the reduced search to exhaust. *)
  let body_one lock ~pid = Rme_sim.Harness.standard_body ~lock ~requests:1 pid in
  let wr_n2 ~por ~max_runs =
    Rme_check.Explore.explore ~por ~max_runs ~max_steps:4_000 ~shrink_violations:false ~n:2
      ~model:Memory.CC ~crash ~setup:Wr_lock.make ~body:body_one ~check ()
  in
  let sa_n2 ~por ~max_runs =
    let make = (Rme.Spec.find_exn "sa-jjj").Rme.Spec.make in
    Rme_check.Explore.explore ~por ~max_runs ~max_steps:20_000 ~shrink_violations:false ~n:2
      ~model:Memory.CC ~crash ~setup:make ~body:body_one ~check ()
  in
  (* SA stack ME at n=3: the acceptance subject — beyond both the plain
     and the sleep-set search, exhausted only by source-set DPOR with
     state caching.  The arrival order is handoff-chained (each process
     may start its request once its predecessor reaches Cs_end), so the
     explored concurrency is the acquire-vs-release handoff race at
     every link of the n=3 structure; the unconstrained 3-way tree is
     beyond any tier (measured > 5M classes).  Mutual exclusion is
     checked across all three processes. *)
  let sa_n3 ~por ~max_runs =
    let make = (Rme.Spec.find_exn "sa-jjj").Rme.Spec.make in
    Rme_check.Explore.explore ~por ~max_runs ~max_steps:20_000 ~shrink_violations:false ~n:3
      ~model:Memory.CC ~crash
      ~setup:(fun ctx ->
        let gate = Memory.alloc (Engine.Ctx.memory ctx) ~name:"gate" 0 in
        (make ctx, gate))
      ~body:(fun (lock, gate) ~pid ->
        if Api.completed_requests () < 1 then begin
          if pid > 0 then Api.spin_until gate (Api.Eq pid);
          Api.note (Rme_sim.Event.Seg Rme_sim.Event.Req_begin);
          lock.Rme_locks.Lock.acquire ~pid;
          Api.note (Rme_sim.Event.Seg Rme_sim.Event.Cs_begin);
          Api.note (Rme_sim.Event.Seg Rme_sim.Event.Cs_end);
          Api.write gate (pid + 1);
          lock.Rme_locks.Lock.release ~pid;
          Api.note (Rme_sim.Event.Seg Rme_sim.Event.Req_done)
        end)
      ~check ()
  in
  (* WR-Lock ME at n=3 around the unsafe FAS gap (the Figure 1 scenario,
     staged as in the explorer tests): both searches stop at the identical
     first violation in DFS preorder with the identical shrunk witness. *)
  let wr_gap_setup ctx =
    let gate = Memory.alloc (Engine.Ctx.memory ctx) ~name:"gate" 0 in
    (Wr_lock.make ctx, gate)
  in
  let wr_gap_body (lock, gate) ~pid =
    if pid = 0 then begin
      for _ = 1 to 3 do
        Api.yield ()
      done;
      Api.write gate 1
    end
    else begin
      let cs ~pid = if pid = 1 then Api.spin_until gate (Api.Eq 1) in
      Rme_sim.Harness.standard_body ~cs ~lock ~requests:1 pid
    end
  in
  let wr_gap ~por ~max_runs =
    Rme_check.Explore.explore ~por ~max_runs ~max_steps:4_000 ~n:3 ~model:Memory.CC
      ~crash:(fun () -> Crash.on_kind ~pid:2 ~kind:Api.Fas ~occurrence:0 Crash.After)
      ~setup:wr_gap_setup ~body:wr_gap_body
      ~check:(fun res -> if res.Engine.cs_max > 1 then Some "ME violation" else None)
      ()
  in
  let reductions =
    List.map reduction_case
      [
        ("splitter-me-n2", splitter, 200_000);
        ("wr-me-n2", wr_n2, 200_000);
        ("wr-gap-me-n3", wr_gap, 200_000);
        ("sa-me-n2", sa_n2, 200_000);
        ("sa-me-n3", sa_n3, 400_000);
      ]
  in
  table
    ~header:
      [ "subject"; "plain"; "sleep"; "source"; "reduction"; "base"; "t plain"; "t src"; "identical" ]
    ~rows:
      (List.map
         (fun ( name,
                plain_runs,
                sleep_runs,
                source_runs,
                plain_dt,
                _sleep_dt,
                source_dt,
                factor,
                baseline,
                lower_bound,
                identical,
                _exh ) ->
           [
             name;
             string_of_int plain_runs;
             string_of_int sleep_runs;
             string_of_int source_runs;
             Printf.sprintf "%s%.2fx" (if lower_bound then ">= " else "") factor;
             baseline;
             Printf.sprintf "%.3f s" plain_dt;
             Printf.sprintf "%.3f s" source_dt;
             string_of_bool identical;
           ])
         reductions);
  Fmt.pr "@.(identical = every conclusive tier pair agrees: same first violation and@.\
          shrunk witness, or same clean exhaustion — a truncated clean search is@.\
          compatible with an exhausted clean one; 'reduction' compares `Source@.\
          against the named baseline, the best tier that exhausted, and '>=' marks@.\
          subjects where no baseline tier exhausted within 4x the source runs, so@.\
          the true factor is larger)@.";
  (* Machine-readable trajectory point, same shape as the sweep/chaos
     experiments: throughput cases plus the POR reduction factors. *)
  let path = "BENCH_explore.json" in
  let buf = Buffer.create 1024 in
  json_header buf "explore";
  (match !ref_stats with
  | Some s ->
      Printf.bprintf buf
        "  \"search_stats\": {\"engine_runs\": %d, \"engine_steps\": %d, \"cache_hits\": %d, \
         \"cache_misses\": %d, \"cache_evictions\": %d},\n"
        s.Rme_check.Explore.engine_runs s.Rme_check.Explore.engine_steps
        s.Rme_check.Explore.cache_hits s.Rme_check.Explore.cache_misses
        s.Rme_check.Explore.cache_evictions
  | None -> ());
  Buffer.add_string buf "  \"throughput\": [\n";
  List.iteri
    (fun i (label, runs, dt, rate, speedup) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"explorer\": %S, \"runs\": %d, \"seconds\": %.4f, \"runs_per_sec\": %.2f, \
            \"speedup\": %.3f}%s\n"
           label runs dt rate speedup
           (if i = List.length throughput - 1 then "" else ",")))
    throughput;
  Buffer.add_string buf "  ],\n  \"reduction\": [\n";
  List.iteri
    (fun i
         ( name,
           plain_runs,
           sleep_runs,
           source_runs,
           plain_dt,
           sleep_dt,
           source_dt,
           factor,
           baseline,
           lower_bound,
           identical,
           source_exhausted ) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"subject\": %S, \"plain_runs\": %d, \"sleep_runs\": %d, \"por_runs\": %d, \
            \"reduction_factor\": %.3f, \"baseline\": %S, \"factor_is_lower_bound\": %b, \
            \"plain_seconds\": %.4f, \"sleep_seconds\": %.4f, \"por_seconds\": %.4f, \
            \"source_exhausted\": %b, \"identical_outcome\": %b}%s\n"
           name plain_runs sleep_runs source_runs factor baseline lower_bound plain_dt sleep_dt
           source_dt source_exhausted identical
           (if i = List.length reductions - 1 then "" else ",")))
    reductions;
  Buffer.add_string buf "  ]\n}\n";
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (Buffer.contents buf));
  Fmt.pr "@.(json: %s)@." path;
  (* Acceptance gates: the SA stack must exhaust under `Source at n=2
     (exact factor, not a lower bound) and at n=3, and the splitter must
     keep its measured reduction. *)
  let row name =
    List.find (fun (n, _, _, _, _, _, _, _, _, _, _, _) -> n = name) reductions
  in
  let exhausted_of (_, _, _, _, _, _, _, _, _, _, _, e) = e in
  let factor_of (_, _, _, _, _, _, _, f, _, _, _, _) = f in
  let lower_of (_, _, _, _, _, _, _, _, _, lb, _, _) = lb in
  let gate ok msg = if not ok then (Fmt.pr "FAIL: %s@." msg; true) else false in
  let accept_fail =
    List.exists Fun.id
      [
        gate (exhausted_of (row "sa-me-n2")) "sa-me-n2 must exhaust under `Source";
        gate (not (lower_of (row "sa-me-n2"))) "sa-me-n2 factor must not be a lower bound";
        gate (exhausted_of (row "sa-me-n3")) "sa-me-n3 must exhaust under `Source";
        gate (factor_of (row "splitter-me-n2") >= 91.0) "splitter-me-n2 must keep >= 91x";
      ]
  in
  if !divergence || gate_fail || !overhead_fail || accept_fail then exit 1

(* ------------------------------------------------------------------ *)
(* Sweep throughput: crash-site campaign cost per lock                  *)
(* ------------------------------------------------------------------ *)

let sweep_bench () =
  Fmt.pr "@.=== Sweep: crash-site campaign throughput ===@.@.";
  let module Sweep = Rme_check.Sweep in
  let sweep_cfg jobs =
    {
      Sweep.default_cfg with
      Sweep.max_runs_per_plan = 150;
      max_steps = 6_000;
      site_cap = 48;
      plan_cap = 120;
      jobs;
    }
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let case key jobs =
    let spec : Rme.Spec.t = Rme.Spec.find_exn key in
    let s =
      Sweep.standard_subject ~name:key ~n:2 ~requests:1 ~cs_yields:2
        ~recoverability:spec.expectation.Rme.Spec.recoverability spec.make
    in
    let c, dt =
      time (fun () ->
          Sweep.sweep (sweep_cfg jobs) ~n:s.Sweep.subject_n ~model:Memory.CC
            ~props:s.Sweep.subject_props s.Sweep.subject_scenario)
    in
    let sites = List.length c.Sweep.sites in
    (key, jobs, sites, c.Sweep.plans_run, c.Sweep.runs, dt)
  in
  let cases =
    [ case "wr" 1; case "wr" 2; case "sa-jjj" 1; case "ba-jjj" 1 ]
  in
  table
    ~header:[ "lock"; "jobs"; "sites"; "plans"; "runs"; "wall clock"; "sites/s"; "runs/s" ]
    ~rows:
      (List.map
         (fun (key, jobs, sites, plans, runs, dt) ->
           [
             key;
             string_of_int jobs;
             string_of_int sites;
             string_of_int plans;
             string_of_int runs;
             Printf.sprintf "%.3f s" dt;
             Printf.sprintf "%.1f" (float_of_int sites /. dt);
             Printf.sprintf "%.1f" (float_of_int runs /. dt);
           ])
         cases);
  (* Machine-readable trajectory point: one JSON file per bench invocation,
     appended to by CI so sweep throughput regressions are visible over time. *)
  let path = "BENCH_sweep.json" in
  let buf = Buffer.create 512 in
  json_header buf "sweep";
  Buffer.add_string buf "  \"cases\": [\n";
  List.iteri
    (fun i (key, jobs, sites, plans, runs, dt) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"lock\": %S, \"jobs\": %d, \"sites\": %d, \"plans\": %d, \"runs\": %d, \
            \"seconds\": %.4f, \"sites_per_sec\": %.2f, \"runs_per_sec\": %.2f}%s\n"
           key jobs sites plans runs dt
           (float_of_int sites /. dt)
           (float_of_int runs /. dt)
           (if i = List.length cases - 1 then "" else ",")))
    cases;
  Buffer.add_string buf "  ]\n}\n";
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (Buffer.contents buf));
  Fmt.pr "@.(json: %s)@." path

(* ------------------------------------------------------------------ *)
(* Chaos campaign throughput: adaptive adversaries over the registry    *)
(* ------------------------------------------------------------------ *)

let chaos_bench () =
  Fmt.pr "@.=== Chaos: adaptive-adversary campaign throughput ===@.@.";
  let module Chaos = Rme_check.Chaos in
  let runs = 50 in
  let case_of key = Rme.Spec.chaos_case ~n:Chaos.default_cfg.Chaos.n (Rme.Spec.find_exn key) in
  let adv_name a = Fmt.str "%a" Chaos.pp_adversary a in
  let short s = String.sub s 0 (String.index s '(') in
  let cases =
    List.concat_map
      (fun key ->
        List.map
          (fun adv ->
            let t0 = Unix.gettimeofday () in
            let o =
              Chaos.campaign ~adversaries:[ adv ] ~runs ~seed_base:0 [ case_of key ]
            in
            let dt = Unix.gettimeofday () -. t0 in
            (key, adv, o, dt))
          Chaos.standard_adversaries)
      [ "wr"; "sa-jjj"; "ba-jjj" ]
  in
  let latency (o : Chaos.outcome) =
    if o.Chaos.detect_runs = 0 then 0.0
    else float_of_int o.Chaos.detect_steps /. float_of_int o.Chaos.detect_runs
  in
  table
    ~header:[ "lock"; "adversary"; "runs"; "crashes"; "viol"; "wall clock"; "runs/s"; "detect" ]
    ~rows:
      (List.map
         (fun (key, adv, (o : Chaos.outcome), dt) ->
           [
             key;
             short (adv_name adv);
             string_of_int o.Chaos.runs;
             string_of_int o.Chaos.crashes;
             string_of_int (List.length o.Chaos.violations);
             Printf.sprintf "%.3f s" dt;
             Printf.sprintf "%.1f" (float_of_int o.Chaos.runs /. dt);
             Printf.sprintf "%.0f steps" (latency o);
           ])
         cases);
  Fmt.pr "@.(detect = mean engine steps from a run's first injected crash to its@.\
          battery verdict; violations are expected to be 0 — any hit is replayed@.\
          and shrunk, see soak --adversary)@.";
  let path = "BENCH_chaos.json" in
  let buf = Buffer.create 512 in
  json_header buf "chaos";
  Buffer.add_string buf "  \"cases\": [\n";
  List.iteri
    (fun i (key, adv, (o : Chaos.outcome), dt) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"lock\": %S, \"adversary\": %S, \"runs\": %d, \"crashes\": %d, \
            \"violations\": %d, \"seconds\": %.4f, \"runs_per_sec\": %.2f, \
            \"detect_latency_steps\": %.1f}%s\n"
           key (short (adv_name adv)) o.Chaos.runs o.Chaos.crashes
           (List.length o.Chaos.violations)
           dt
           (float_of_int o.Chaos.runs /. dt)
           (latency o)
           (if i = List.length cases - 1 then "" else ",")))
    cases;
  Buffer.add_string buf "  ]\n}\n";
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (Buffer.contents buf));
  Fmt.pr "@.(json: %s)@." path

(* ------------------------------------------------------------------ *)
(* System-crash shootout: storm adversaries under both crash models     *)
(* ------------------------------------------------------------------ *)

let syscrash_bench () =
  Fmt.pr "@.=== Syscrash: lock x crash-model storm shootout ===@.@.";
  let module Chaos = Rme_check.Chaos in
  let runs = 40 in
  let cfg = Chaos.default_cfg in
  (* The shootout judges the battery alone, without the failure-free RMR
     monitor. *)
  let case_of key =
    let case = Rme.Spec.chaos_case ~n:cfg.Chaos.n (Rme.Spec.find_exn key) in
    { case with Chaos.case_ff_bound = None }
  in
  (* Matched storm profiles: same burst shape, one striking individual
     processes, the other the whole system. *)
  let adversaries =
    [
      ("per-process", Chaos.Storm { rate = 0.02; max_crashes = 6; gap = 40; backoff = 1.5 }, 6);
      ("system-wide", Chaos.Sys_storm { rate = 0.01; max_crashes = 4; gap = 60; backoff = 1.5 }, 4);
    ]
  in
  let cases =
    List.concat_map
      (fun key ->
        let case = case_of key in
        List.map
          (fun (model_name, adv, budget) ->
            let t0 = Unix.gettimeofday () in
            let crashes = ref 0 and exhausted = ref 0 and violations = ref 0 in
            let detect_steps = ref 0 and detect_runs = ref 0 in
            for seed = 0 to runs - 1 do
              let r = Chaos.run_one cfg ~make:case.Chaos.case_make ~adversary:adv ~seed in
              let fired = List.length r.Chaos.fired in
              crashes := !crashes + fired;
              (* runs-to-exhaustion: how often the storm's whole crash
                 budget landed inside one run's horizon *)
              if fired >= budget then incr exhausted;
              (match r.Chaos.fired with
              | f :: _ ->
                  detect_steps := !detect_steps + (r.Chaos.res.Rme_sim.Engine.steps - f.Rme_sim.Crash.f_step);
                  incr detect_runs
              | [] -> ());
              if Chaos.battery case ~requests:cfg.Chaos.requests r.Chaos.res <> [] then
                incr violations
            done;
            let dt = Unix.gettimeofday () -. t0 in
            let latency =
              if !detect_runs = 0 then 0.0
              else float_of_int !detect_steps /. float_of_int !detect_runs
            in
            (key, model_name, !crashes, !exhausted, !violations, latency, dt))
          adversaries)
      [ "wr"; "ba-jjj"; "jjj-sys"; "dm-jjj" ]
  in
  table
    ~header:
      [ "lock"; "crash model"; "crashes"; "exhausted"; "viol"; "detect"; "wall clock"; "runs/s" ]
    ~rows:
      (List.map
         (fun (key, model_name, crashes, exhausted, violations, latency, dt) ->
           [
             key;
             model_name;
             string_of_int crashes;
             Printf.sprintf "%d/%d" exhausted runs;
             string_of_int violations;
             Printf.sprintf "%.0f steps" latency;
             Printf.sprintf "%.3f s" dt;
             Printf.sprintf "%.1f" (float_of_int runs /. dt);
           ])
         cases);
  Fmt.pr "@.(exhausted = runs in which the storm spent its whole crash budget;@.\
          detect = mean engine steps from a run's first crash to its battery@.\
          verdict; viol is expected to stay 0 for every recoverable lock under@.\
          both models)@.";
  let path = "BENCH_syscrash.json" in
  let buf = Buffer.create 512 in
  json_header buf "syscrash";
  Buffer.add_string buf "  \"cases\": [\n";
  List.iteri
    (fun i (key, model_name, crashes, exhausted, violations, latency, dt) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"lock\": %S, \"crash_model\": %S, \"runs\": %d, \"crashes\": %d, \
            \"exhausted_runs\": %d, \"violations\": %d, \"detect_latency_steps\": %.1f, \
            \"seconds\": %.4f, \"runs_per_sec\": %.2f}%s\n"
           key model_name runs crashes exhausted violations latency dt
           (float_of_int runs /. dt)
           (if i = List.length cases - 1 then "" else ",")))
    cases;
  Buffer.add_string buf "  ]\n}\n";
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (Buffer.contents buf));
  Fmt.pr "@.(json: %s)@." path

(* ------------------------------------------------------------------ *)
(* Abort: impatience shootout over the abortable locks                  *)
(* ------------------------------------------------------------------ *)

let abort_bench () =
  Fmt.pr "@.=== Abort: throughput and abort latency under impatience ===@.@.";
  let n = 8 and requests = 6 in
  let seeds = List.init 10 (fun i -> i) in
  (* Impatience levels are timeout profiles; the realised abort fraction
     is measured and reported, not assumed. *)
  let levels =
    [
      ("none", Rme.Workload.No_failures);
      ("mild", Rme.Workload.Impatient { timeout_steps = 120; retries = 2; backoff = 2.0 });
      ("heavy", Rme.Workload.Impatient { timeout_steps = 25; retries = 4; backoff = 1.5 });
    ]
  in
  let cfg scenario seed =
    {
      Rme.Workload.default_cfg with
      Rme.Workload.n;
      requests;
      seed;
      scenario;
      record = true;
      max_steps = 2_000_000;
    }
  in
  let locks = [ "wr-abort"; "bakery-abort"; "tas-abort" ] in
  let cases =
    List.concat_map
      (fun key ->
        let spec = Rme.Spec.find_exn key in
        List.map
          (fun (level, scenario) ->
            let t0 = Unix.gettimeofday () in
            let throughput = ref 0.0 and aborts = ref 0 and signals = ref 0 in
            let lat_sum = ref 0 and lat_max = ref 0 and lat_n = ref 0 in
            let stalls = ref 0 and completed = ref 0 in
            List.iter
              (fun seed ->
                let res = Rme.Workload.run spec (cfg scenario seed) in
                let m = Rme.Workload.measure res in
                throughput := !throughput +. m.Rme.Workload.throughput;
                aborts := !aborts + m.Rme.Workload.aborts;
                signals := !signals + List.length res.Rme_sim.Engine.aborts;
                completed := !completed + Rme_sim.Engine.total_completed res;
                List.iter
                  (fun (a : Rme_sim.Engine.abort_stat) ->
                    match a.Rme_sim.Engine.ab_result with
                    | Rme_sim.Engine.Res_aborted | Rme_sim.Engine.Res_lost_race ->
                        lat_sum := !lat_sum + a.Rme_sim.Engine.ab_own_steps;
                        lat_max := max !lat_max a.Rme_sim.Engine.ab_own_steps;
                        incr lat_n
                    | _ -> ())
                  res.Rme_sim.Engine.aborts;
                if
                  Rme.Check.Props.no_lost_wakeup res
                    ~bound:Rme.Check.Props.default_abort_expect.Rme.Check.Props.overtake_bound
                  <> None
                then incr stalls)
              seeds;
            let k = float_of_int (List.length seeds) in
            let latency = if !lat_n = 0 then 0.0 else float_of_int !lat_sum /. float_of_int !lat_n in
            let dt = Unix.gettimeofday () -. t0 in
            (key, level, !throughput /. k, !signals, !aborts, latency, !lat_max, !stalls, dt))
          levels)
      locks
  in
  table
    ~header:
      [ "lock"; "impatience"; "thpt/1k"; "signals"; "aborts"; "lat mean"; "lat max"; "stalls" ]
    ~rows:
      (List.map
         (fun (key, level, thpt, signals, aborts, latency, lat_max, stalls, _dt) ->
           [
             key;
             level;
             Printf.sprintf "%.2f" thpt;
             string_of_int signals;
             string_of_int aborts;
             Printf.sprintf "%.1f" latency;
             string_of_int lat_max;
             string_of_int stalls;
           ])
         cases);
  Fmt.pr "@.(thpt = satisfied requests per 1000 engine steps, averaged over %d seeds;@.\
          lat = the victim's own steps from abort signal to Aborted/lost-race@.\
          resolution; stalls = runs the lost-wakeup monitor flagged, expected 0)@."
    (List.length seeds);
  (* The no-abort overhead of the abortable variants: same workload, no
     impatience, abortable lock vs its plain ancestor.  This is the cost
     of carrying the abort port when nobody aborts. *)
  let overhead =
    List.map
      (fun (plain, abortable) ->
        let thpt key =
          let spec = Rme.Spec.find_exn key in
          let sum =
            List.fold_left
              (fun acc seed ->
                let res = Rme.Workload.run spec (cfg Rme.Workload.No_failures seed) in
                acc +. (Rme.Workload.measure res).Rme.Workload.throughput)
              0.0 seeds
          in
          sum /. float_of_int (List.length seeds)
        in
        let base = thpt plain and inst = thpt abortable in
        (plain, abortable, base, inst, if base = 0.0 then 1.0 else inst /. base))
      [ ("wr", "wr-abort"); ("bakery", "bakery-abort") ]
  in
  table
    ~header:[ "baseline"; "abortable"; "base thpt"; "abortable thpt"; "ratio" ]
    ~rows:
      (List.map
         (fun (plain, abortable, base, inst, ratio) ->
           [
             plain;
             abortable;
             Printf.sprintf "%.2f" base;
             Printf.sprintf "%.2f" inst;
             Printf.sprintf "%.3f" ratio;
           ])
         overhead);
  let path = "BENCH_abort.json" in
  let buf = Buffer.create 1024 in
  json_header buf "abort";
  Buffer.add_string buf "  \"cases\": [\n";
  List.iteri
    (fun i (key, level, thpt, signals, aborts, latency, lat_max, stalls, dt) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"lock\": %S, \"impatience\": %S, \"throughput_per_1k_steps\": %.3f, \
            \"abort_signals\": %d, \"aborts\": %d, \"abort_latency_own_steps_mean\": %.2f, \
            \"abort_latency_own_steps_max\": %d, \"lost_wakeup_stalls\": %d, \"seconds\": \
            %.4f}%s\n"
           key level thpt signals aborts latency lat_max stalls dt
           (if i = List.length cases - 1 then "" else ",")))
    cases;
  Buffer.add_string buf "  ],\n  \"no_abort_overhead\": [\n";
  List.iteri
    (fun i (plain, abortable, base, inst, ratio) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"baseline\": %S, \"abortable\": %S, \"baseline_throughput\": %.3f, \
            \"abortable_throughput\": %.3f, \"ratio\": %.4f}%s\n"
           plain abortable base inst ratio
           (if i = List.length overhead - 1 then "" else ",")))
    overhead;
  Buffer.add_string buf "  ]\n}\n";
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (Buffer.contents buf));
  Fmt.pr "@.(json: %s)@." path;
  List.iter
    (fun (_, _, _, _, _, _, _, stalls, _) ->
      if stalls > 0 then begin
        Fmt.epr "abort bench: lost-wakeup stall detected@.";
        exit 1
      end)
    cases

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
(* Bechamel wall-clock suite                                            *)
(* ------------------------------------------------------------------ *)

let bechamel () =
  Fmt.pr "@.=== Bechamel: wall-clock time per simulated workload ===@.@.";
  let open Bechamel in
  let workload key scenario () =
    ignore (Rme.Workload.run_key key (cfg ~n:8 ~requests:4 ~cs_yields:2 scenario))
  in
  let tests =
    (* One Test.make per reproduced table/figure workload. *)
    [
      Test.make ~name:"table1/ba-jjj/ff" (Staged.stage (workload "ba-jjj" scenario_none));
      Test.make ~name:"table1/ba-jjj/f8" (Staged.stage (workload "ba-jjj" (scenario_f 8)));
      Test.make ~name:"table1/jjj/ff" (Staged.stage (workload "jjj" scenario_none));
      Test.make ~name:"table1/tournament/ff" (Staged.stage (workload "tournament" scenario_none));
      Test.make ~name:"table1/bakery/ff" (Staged.stage (workload "bakery" scenario_none));
      Test.make ~name:"table1/wr/ff" (Staged.stage (workload "wr" scenario_none));
      Test.make ~name:"table2/sa-bakery/f8" (Staged.stage (workload "sa-bakery" (scenario_f 8)));
      Test.make ~name:"fig3/ba-jjj/f32" (Staged.stage (workload "ba-jjj" (scenario_f 32)));
      Test.make ~name:"batch/ba-jjj"
        (Staged.stage
           (workload "ba-jjj" (Rme.Workload.Batch { size = 8; at_step = 200; repeat = 1; gap = 0 })));
      Test.make ~name:"reclaim/wr-reclaim/storm"
        (Staged.stage (workload "wr-reclaim" (Rme.Workload.Random_storm { crashes = 8; rate = 0.01 })));
      Test.make ~name:"ablation/ba-jjj-tracked/f8"
        (Staged.stage (workload "ba-jjj-tracked" (scenario_f 8)));
    ]
  in
  let grouped = Test.make_grouped ~name:"rme" ~fmt:"%s %s" tests in
  let benchmark () =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg_b =
      Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) ~kde:(Some 10) ()
    in
    let raw = Benchmark.all cfg_b instances grouped in
    let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
    results
  in
  let results = benchmark () in
  let rows = ref [] in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> rows := [ name; Printf.sprintf "%.2f us/run" (est /. 1000.) ] :: !rows
      | _ -> rows := [ name; "n/a" ] :: !rows)
    results;
  table ~header:[ "workload"; "time" ] ~rows:(List.sort compare !rows)

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
    ("explore", explore_bench);
    ("gc", gc_bench);
    ("sweep", sweep_bench);
    ("chaos", chaos_bench);
    ("syscrash", syscrash_bench);
    ("abort", abort_bench);
    ("figures", figures);
    ("bechamel", bechamel);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec strip_csv acc = function
    | "--csv" :: dir :: rest ->
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        csv_dir := Some dir;
        strip_csv acc rest
    | a :: rest -> strip_csv (a :: acc) rest
    | [] -> List.rev acc
  in
  match strip_csv [] args with
  | [] -> List.iter (fun (_, f) -> f ()) experiments
  | names ->
      List.iter
        (fun name ->
          match List.assoc_opt name experiments with
          | Some f -> f ()
          | None ->
              Fmt.epr "unknown experiment %S (have: %s)@." name
                (String.concat ", " (List.map fst experiments));
              exit 1)
        names
