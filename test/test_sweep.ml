(* Tests for the crash-site sweep engine and the conformance matrix.

   The headline case is the paper's own: sweeping WR-Lock with no
   hand-written crash plan must rediscover the FAS-gap mutual-exclusion
   overlap (a crash After the FAS on [wr.tail], §4 / Figure 1) as an
   *expected* weak-recoverability violation, while the strongly
   recoverable SA/BA locks survive every single-crash site with zero ME
   findings. *)

open Rme_sim
open Rme_locks
open Rme_check

let check = Alcotest.check

let cb = Alcotest.bool

let ci = Alcotest.int

(* ------------------------------------------------------------------ *)
(* Discovery and plan enumeration                                      *)
(* ------------------------------------------------------------------ *)

(* Two symmetric processes, three instructions each: dedup by
   (kind, cell, op_index) must collapse them to one site per instruction. *)
let tiny_scenario =
  Sweep.Scenario
    {
      setup = (fun ctx -> Memory.alloc (Engine.Ctx.memory ctx) ~name:"cnt" 0);
      body =
        (fun c ~pid:_ ->
          ignore (Api.faa c 1);
          Api.yield ();
          ignore (Api.faa c 1));
    }

let test_discover_dedups_symmetric_sites () =
  let seen, sites, truncated = Sweep.discover Sweep.default_cfg ~n:2 ~model:Memory.CC tiny_scenario in
  check ci "six executed sites" 6 seen;
  check ci "three after dedup" 3 (List.length sites);
  check cb "not truncated" false truncated;
  (* discovery order, first representative (p0) kept *)
  List.iteri (fun i s -> check ci "op_index in order" i s.Sweep.op_index) sites;
  List.iter (fun s -> check ci "representative is p0" 0 s.Sweep.pid) sites

let test_site_cap_truncates () =
  let cfg = { Sweep.default_cfg with Sweep.site_cap = 2 } in
  let _, sites, truncated = Sweep.discover cfg ~n:2 ~model:Memory.CC tiny_scenario in
  check ci "capped" 2 (List.length sites);
  check cb "truncation surfaced" true truncated

let test_plan_enumeration () =
  let _, sites, _ = Sweep.discover Sweep.default_cfg ~n:2 ~model:Memory.CC tiny_scenario in
  let budget b = { Sweep.default_cfg with Sweep.budget = b } in
  check ci "budget 0: baseline only" 1 (List.length (Sweep.plans_of_sites (budget 0) sites));
  (* 1 baseline + {Before, After} x 3 sites, no spin sites *)
  check ci "budget 1: singles" 7 (List.length (Sweep.plans_of_sites (budget 1) sites));
  (* + C(3, 2) After-After pairs *)
  check ci "budget 2: adds pairs" 10 (List.length (Sweep.plans_of_sites (budget 2) sites));
  match Sweep.plans_of_sites (budget 1) sites with
  | Sweep.No_crash :: Sweep.Single (s, Crash.Before) :: Sweep.Single (s', Crash.After) :: _ ->
      check ci "singles in site order" s.Sweep.op_index s'.Sweep.op_index
  | _ -> Alcotest.fail "plan order: expected baseline then before/after singles"

(* A parked process is reachable only by an asynchronous crash: spin sites
   must contribute Async_park plans. *)
let test_spin_sites_get_async_plans () =
  let scenario =
    Sweep.Scenario
      {
        setup = (fun ctx -> Memory.alloc (Engine.Ctx.memory ctx) ~name:"gate" 0);
        body =
          (fun gate ~pid ->
            if pid = 0 then begin
              Api.yield ();
              Api.write gate 1
            end
            else Api.spin_until gate (Api.Eq 1));
      }
  in
  let _, sites, _ = Sweep.discover Sweep.default_cfg ~n:2 ~model:Memory.CC scenario in
  let plans = Sweep.plans_of_sites Sweep.default_cfg sites in
  check cb "spin site discovered" true (List.exists (fun s -> s.Sweep.kind = Api.Spin) sites);
  check cb "async park plan enumerated" true
    (List.exists (function Sweep.Async_park _ -> true | _ -> false) plans)

(* ------------------------------------------------------------------ *)
(* WR-Lock: the FAS gap, rediscovered                                  *)
(* ------------------------------------------------------------------ *)

let test_wr_rediscovers_fas_gap () =
  let cfg =
    {
      Sweep.default_cfg with
      Sweep.max_runs_per_plan = 300;
      max_steps = 6_000;
      site_cap = 64;
      plan_cap = 160;
    }
  in
  let scenario = Sweep.lock_scenario ~cs_yields:3 ~requests:1 Wr_lock.make in
  let props =
    [
      Sweep.me_prop ~expected_under_crash:true ();
      Sweep.weak_me_prop ~lock_id:0;
      Sweep.responsiveness_prop ~lock_id:0;
    ]
  in
  let c = Sweep.sweep cfg ~n:2 ~model:Memory.CC ~props scenario in
  (* Theorem 4.2 side: weak ME (interval form) and responsiveness hold at
     every crash site — any hit would be a FAIL. *)
  List.iter
    (fun f ->
      if not f.Sweep.f_expected then
        Alcotest.failf "unexpected violation: %s" (Fmt.str "%a" Sweep.pp_finding f))
    c.Sweep.findings;
  (* The sensitive-window side: plain ME breaks, and the sweep pinpoints
     the site — a crash After the FAS on the tail cell. *)
  let is_gap f =
    f.Sweep.f_expected
    && f.Sweep.f_prop = "ME"
    &&
    match f.Sweep.f_plan with
    | Sweep.Single (s, Crash.After) -> s.Sweep.kind = Api.Fas && s.Sweep.cell = Some "wr.tail"
    | _ -> false
  in
  check cb "FAS-gap ME overlap rediscovered at the After-FAS site" true
    (List.exists is_gap c.Sweep.findings);
  check cb "crash-free baseline clean" true
    (List.for_all (fun f -> f.Sweep.f_plan <> Sweep.No_crash) c.Sweep.findings);
  (* Every ME overlap the sweep found lies in the sensitive window: a
     single crash elsewhere cannot break WR-Lock (Theorem 4.2). *)
  List.iter
    (fun f ->
      if f.Sweep.f_prop = "ME" then
        match f.Sweep.f_plan with
        | Sweep.Single (s, _) | Sweep.Async_park s ->
            let gap_cell =
              match s.Sweep.cell with
              | Some cell -> cell = "wr.tail" || cell = "wr.pred[0]" || cell = "wr.pred[1]"
              | None -> false
            in
            check cb
              (Fmt.str "ME overlap only in the FAS gap (got %a)" Sweep.pp_site s)
              true gap_cell
        | _ -> ())
    c.Sweep.findings

(* ------------------------------------------------------------------ *)
(* SA / BA locks: no single crash site breaks mutual exclusion         *)
(* ------------------------------------------------------------------ *)

let test_strong_locks_zero_me_findings () =
  let cfg =
    {
      Sweep.default_cfg with
      Sweep.max_runs_per_plan = 100;
      max_steps = 10_000;
      site_cap = 48;
      plan_cap = 120;
    }
  in
  List.iter
    (fun key ->
      let spec = Rme.Spec.find_exn key in
      let scenario = Sweep.lock_scenario ~cs_yields:2 ~requests:1 spec.Rme.Spec.make in
      let c = Sweep.sweep cfg ~n:2 ~model:Memory.CC ~props:[ Sweep.me_prop () ] scenario in
      check cb (key ^ ": sites discovered") true (c.Sweep.sites <> []);
      check ci (key ^ ": zero ME findings") 0 (List.length c.Sweep.findings))
    [ "sa-jjj"; "ba-jjj" ]

(* ------------------------------------------------------------------ *)
(* Matrix determinism across jobs, and the exhausted column           *)
(* ------------------------------------------------------------------ *)

(* Deterministic toy subjects whose schedule trees are small enough to
   exhaust within the budget, exercising all three verdict kinds. *)
let tiny_subjects =
  let prop name bound expected =
    {
      Sweep.prop_name = name;
      check =
        (fun res ->
          if res.Engine.steps > bound then Some (Printf.sprintf "%d steps" res.Engine.steps)
          else None);
      expected_under_crash = expected;
      needs_record = false;
    }
  in
  let crashed_prop =
    {
      Sweep.prop_name = "crash-free";
      check = (fun res -> if res.Engine.total_crashes > 0 then Some "crashed" else None);
      expected_under_crash = true;
      needs_record = false;
    }
  in
  [
    {
      Sweep.subject_name = "tiny-pass";
      subject_n = 2;
      subject_scenario = tiny_scenario;
      subject_props = [ prop "roomy" 1_000 false; crashed_prop ];
    };
    {
      Sweep.subject_name = "tiny-fail";
      subject_n = 2;
      subject_scenario = tiny_scenario;
      subject_props = [ prop "cramped" 3 false ];
    };
  ]

let render cfg =
  let rows = Sweep.matrix cfg ~model:Memory.CC ~subjects:tiny_subjects in
  let header, cells = Sweep.matrix_cells rows in
  Rme.Report.table_to_string ~header ~rows:cells
  ^ String.concat "\n" (Sweep.matrix_details rows)

let contains_sub hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let test_matrix_determinism_across_jobs () =
  let base = { Sweep.default_cfg with Sweep.max_runs_per_plan = 400; max_steps = 500 } in
  let reference = render base in
  (* sanity: the toy matrix exercises pass, expected and FAIL verdicts *)
  let has s = contains_sub reference s in
  check cb "reference has pass" true (has "pass");
  check cb "reference has expected" true (has "expected(");
  check cb "reference has FAIL" true (has "FAIL");
  List.iter
    (fun jobs ->
      let s = render { base with Sweep.jobs } in
      check Alcotest.string (Printf.sprintf "jobs=%d" jobs) reference s)
    [ 2; 4 ]

(* The pool under Sweep, Chaos and soak: results come back in task order
   for every domain count, and a task's exception surfaces as itself — the
   lowest-indexed one, as a left-to-right run would raise it — not wrapped
   by the join of the domain that ran it.  The failing tasks sit in the
   upper half of the array, where a second domain picks up work. *)
let test_pool_order_and_exceptions () =
  let tasks = Array.init 50 Fun.id in
  List.iter
    (fun domains ->
      check
        Alcotest.(array int)
        (Printf.sprintf "domains=%d: results in task order" domains)
        (Array.map (fun i -> i * i) tasks)
        (Pool.map ~domains ~tasks (fun i -> i * i));
      let f i = if i = 40 then failwith "boom" else if i = 45 then failwith "late" else i in
      match Pool.map ~domains ~tasks f with
      | _ -> Alcotest.failf "domains=%d: the raising task went unnoticed" domains
      | exception Failure msg ->
          check Alcotest.string
            (Printf.sprintf "domains=%d: lowest-indexed failure, unwrapped" domains)
            "boom" msg
      | exception e ->
          Alcotest.failf "domains=%d: task exception surfaced as %s" domains (Printexc.to_string e))
    [ 1; 2; 4 ]

(* A pass whose plans stopped at the run budget is a sample, and the
   matrix says so: the toy subject, checked only for a bound it always
   meets, exhausts only some of its 7 plans at 3 runs per plan, and all of
   them at 400. *)
let test_matrix_exhausted_column () =
  let tiny_pass = List.hd tiny_subjects in
  let subject =
    {
      tiny_pass with
      Sweep.subject_props =
        List.filter (fun p -> p.Sweep.prop_name = "roomy") tiny_pass.Sweep.subject_props;
    }
  in
  let rows max_runs_per_plan =
    Sweep.matrix
      { Sweep.default_cfg with Sweep.max_runs_per_plan; max_steps = 500 }
      ~model:Memory.CC ~subjects:[ subject ]
  in
  let exhausted_cell rows =
    let header, cells = Sweep.matrix_cells rows in
    let rec find i = function
      | [] -> Alcotest.fail "no exhausted column"
      | "exhausted" :: _ -> i
      | _ :: rest -> find (i + 1) rest
    in
    List.nth (List.hd cells) (find 0 header)
  in
  let small = rows 3 and large = rows 400 in
  let c = (List.hd small).Sweep.row_campaign in
  check ci "small: plans swept" 7 c.Sweep.plans_run;
  check cb "small: some plan not exhausted" true (c.Sweep.plans_exhausted < c.Sweep.plans_run);
  check Alcotest.string "small: cell" (Printf.sprintf "%d/7" c.Sweep.plans_exhausted)
    (exhausted_cell small);
  check cb "small: detail line" true
    (List.exists
       (fun l -> contains_sub l "tiny-pass: " && contains_sub l "cover a sample")
       (Sweep.matrix_details small));
  check Alcotest.string "large: cell" "7/7" (exhausted_cell large);
  check (Alcotest.list Alcotest.string) "large: no detail lines" [] (Sweep.matrix_details large)

let () =
  Alcotest.run "sweep"
    [
      ( "discovery",
        [
          Alcotest.test_case "dedups symmetric sites" `Quick test_discover_dedups_symmetric_sites;
          Alcotest.test_case "site cap truncates" `Quick test_site_cap_truncates;
          Alcotest.test_case "plan enumeration" `Quick test_plan_enumeration;
          Alcotest.test_case "spin sites get async plans" `Quick test_spin_sites_get_async_plans;
        ] );
      ( "conformance",
        [
          Alcotest.test_case "wr rediscovers the FAS gap" `Slow test_wr_rediscovers_fas_gap;
          Alcotest.test_case "sa/ba: zero ME findings" `Slow test_strong_locks_zero_me_findings;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "matrix identical across jobs" `Slow
            test_matrix_determinism_across_jobs;
          Alcotest.test_case "exhausted column marks samples" `Quick test_matrix_exhausted_column;
          Alcotest.test_case "pool: task order and exceptions" `Quick test_pool_order_and_exceptions;
        ] );
    ]
