(* Unit tests for the support modules: Vec, the Report growth classifier,
   the Workload scenario parser, and the Spec registry — plus qcheck
   properties of the memory model itself (coherence, RMR charging). *)

open Rme_sim

let check = Alcotest.check

let ci = Alcotest.int

let cb = Alcotest.bool

let cf = Alcotest.float 1e-6

(* ------------------------------------------------------------------ *)
(* Vec                                                                 *)
(* ------------------------------------------------------------------ *)

let test_vec_basics () =
  let v = Vec.create () in
  check cb "empty" true (Vec.is_empty v);
  Vec.push v 10;
  Vec.push v 20;
  Vec.push v 30;
  check ci "length" 3 (Vec.length v);
  check ci "get" 20 (Vec.get v 1);
  Vec.set v 1 99;
  check ci "set" 99 (Vec.get v 1);
  check ci "last" 30 (Vec.last v);
  check ci "pop" 30 (Vec.pop v);
  check ci "length after pop" 2 (Vec.length v);
  check (Alcotest.list ci) "to_list" [ 10; 99 ] (Vec.to_list v);
  Vec.clear v;
  check cb "cleared" true (Vec.is_empty v)

let test_vec_bounds () =
  let v = Vec.of_list [ 1; 2 ] in
  Alcotest.check_raises "get oob" (Invalid_argument "Vec.get: index 5 out of bounds [0, 2)")
    (fun () -> ignore (Vec.get v 5));
  Alcotest.check_raises "pop empty" (Invalid_argument "Vec.pop: empty") (fun () ->
      let e = Vec.create () in
      ignore (Vec.pop e))

let test_vec_growth () =
  let v = Vec.create () in
  for i = 0 to 999 do
    Vec.push v i
  done;
  check ci "1000 elements" 1000 (Vec.length v);
  check ci "fold" (999 * 1000 / 2) (Vec.fold_left ( + ) 0 v);
  check cb "exists" true (Vec.exists (fun x -> x = 777) v);
  let seen = ref 0 in
  Vec.iteri (fun i x -> if i = x then incr seen) v;
  check ci "iteri aligned" 1000 !seen

let qcheck_vec_roundtrip =
  QCheck.Test.make ~name:"vec of_list/to_list roundtrip" ~count:200
    QCheck.(list int)
    (fun xs -> Vec.to_list (Vec.of_list xs) = xs)

(* ------------------------------------------------------------------ *)
(* Memory-model properties                                             *)
(* ------------------------------------------------------------------ *)

let qcheck_memory_coherence =
  (* Apply a random op sequence; every read must return the value of the
     latest write-type op, under both models, and every RMR charge is 0/1
     (2 for none in this sequence). *)
  QCheck.Test.make ~name:"memory coherence and RMR bounds" ~count:300
    QCheck.(pair (list (pair (int_bound 2) (int_bound 100))) (int_bound 1))
    (fun (ops, model_ix) ->
      let model = if model_ix = 0 then Memory.CC else Memory.DSM in
      let mem = Memory.create model ~n:3 in
      let c = Memory.alloc mem ~home:1 ~name:"c" 0 in
      let shadow = ref 0 in
      List.for_all
        (fun (kind, v) ->
          let pid = v mod 3 in
          match kind with
          | 0 ->
              let value = Memory.read_u mem ~pid c in
              let rmr = Memory.last_cost mem in
              value = !shadow && rmr >= 0 && rmr <= 1
          | 1 ->
              let rmr = Memory.write mem ~pid c v in
              shadow := v;
              rmr >= 0 && rmr <= 1
          | _ ->
              let old = Memory.fas_u mem ~pid c v in
              let rmr = Memory.last_cost mem in
              let ok = old = !shadow in
              shadow := v;
              ok && rmr >= 0 && rmr <= 1)
        ops)

let qcheck_cc_cached_reads_free =
  (* Two consecutive reads by the same process with no intervening write:
     the second is always free under CC. *)
  QCheck.Test.make ~name:"cc second read free" ~count:100
    QCheck.(int_bound 1000)
    (fun v ->
      let mem = Memory.create Memory.CC ~n:2 in
      let c = Memory.alloc mem ~name:"c" v in
      ignore (Memory.read_u mem ~pid:0 c);
      ignore (Memory.read_u mem ~pid:0 c);
      Memory.last_cost mem = 0)

let test_memory_forget () =
  let mem = Memory.create Memory.CC ~n:2 in
  let c = Memory.alloc mem ~name:"c" 5 in
  ignore (Memory.read_u mem ~pid:0 c);
  Memory.forget mem ~pid:0;
  ignore (Memory.read_u mem ~pid:0 c);
  check ci "cold cache after forget" 1 (Memory.last_cost mem)

(* ------------------------------------------------------------------ *)
(* Report: fitting and classification                                  *)
(* ------------------------------------------------------------------ *)

let curve f = List.map (fun x -> (float_of_int x, f (float_of_int x))) [ 2; 4; 8; 16; 32; 64 ]

let test_fit_exponent () =
  check cf "linear" 1.0 (Float.round (Rme.Report.fit_exponent (curve (fun x -> 3.0 *. x))));
  let e_sqrt = Rme.Report.fit_exponent (curve sqrt) in
  check cb (Printf.sprintf "sqrt ~ 0.5 (%.2f)" e_sqrt) true (Float.abs (e_sqrt -. 0.5) < 0.05);
  let e_flat = Rme.Report.fit_exponent (curve (fun _ -> 7.0)) in
  check cb "flat ~ 0" true (Float.abs e_flat < 0.05)

let test_classify () =
  let open Rme.Report in
  check cb "flat" true (classify (curve (fun _ -> 10.0)) = Flat);
  check cb "linear" true (classify (curve (fun x -> 2.0 *. x)) = Linear);
  check cb "sqrt" true (classify (curve (fun x -> 5.0 *. sqrt x)) = Sqrt);
  (* Lock-shaped log curve: base cost plus a logarithmic term, as the real
     tournament exhibits.  (A pure c*log x curve through the origin has a
     log-log slope near 0.5 over this range and lands in the sqrt bin —
     the bins are calibrated for offset curves.) *)
  check cb "log" true (classify (curve (fun x -> 30.0 +. (10.0 *. log x))) = Logarithmic);
  check cb "quadratic" true (classify (curve (fun x -> x *. x)) = Superlinear)

let test_classification_names () =
  let open Rme.Report in
  let c =
    classify_lock
      ~failure_free_vs_n:(curve (fun _ -> 10.0))
      ~rmr_vs_f:(curve (fun f -> 10.0 +. (4.0 *. sqrt f)))
      ~limited_vs_n:(curve (fun _ -> 12.0))
      ~arbitrary_vs_n:(curve (fun _ -> 30.0))
  in
  check Alcotest.string "super-adaptive" "super-adaptive" (adaptivity_name c);
  check Alcotest.string "well-bounded" "well-bounded" (boundedness_name c);
  let semi =
    classify_lock
      ~failure_free_vs_n:(curve (fun _ -> 10.0))
      ~rmr_vs_f:(curve (fun _ -> 64.0))
      ~limited_vs_n:(curve (fun n -> 3.0 *. n))
      ~arbitrary_vs_n:(curve (fun n -> 3.0 *. n))
  in
  check Alcotest.string "semi-adaptive" "semi-adaptive" (adaptivity_name semi);
  check Alcotest.string "bounded" "bounded" (boundedness_name semi);
  let non =
    classify_lock
      ~failure_free_vs_n:(curve (fun n -> 5.0 *. n))
      ~rmr_vs_f:(curve (fun _ -> 64.0))
      ~limited_vs_n:(curve (fun n -> 5.0 *. n))
      ~arbitrary_vs_n:(curve (fun n -> 5.0 *. n))
  in
  check Alcotest.string "non-adaptive" "non-adaptive" (adaptivity_name non)

let test_write_csv () =
  let path = Filename.temp_file "rme" ".csv" in
  Rme.Report.write_csv ~path ~header:[ "a"; "b,c" ] ~rows:[ [ "1"; "x\"y" ]; [ "2"; "z" ] ];
  let ic = open_in path in
  let lines = List.init 3 (fun _ -> input_line ic) in
  close_in ic;
  Sys.remove path;
  check (Alcotest.list Alcotest.string) "escaped csv"
    [ "a,\"b,c\""; "1,\"x\"\"y\""; "2,z" ]
    lines

let test_svg_chart () =
  let svg =
    Rme.Svg_chart.render ~log_x:true ~title:"t" ~xlabel:"x" ~ylabel:"y"
      [
        { Rme.Svg_chart.label = "a"; points = [ (1.0, 2.0); (2.0, 4.0); (4.0, 8.0) ] };
        { Rme.Svg_chart.label = "b"; points = [ (1.0, 3.0); (2.0, 3.0) ] };
      ]
  in
  check cb "is svg" true (String.length svg > 200 && String.sub svg 0 4 = "<svg");
  check cb "has polylines" true
    (List.length (String.split_on_char '\n' svg |> List.filter (fun l ->
         String.length l > 9 && String.sub l 0 9 = "<polyline")) = 2);
  check cb "closes" true
    (let t = String.trim svg in
     String.sub t (String.length t - 6) 6 = "</svg>")

(* ------------------------------------------------------------------ *)
(* Workload                                                            *)
(* ------------------------------------------------------------------ *)

let test_scenario_parsing () =
  let open Rme.Workload in
  check cb "none" true (scenario_of_string "none" = Some No_failures);
  check cb "fas" true
    (match scenario_of_string "fas:12" with Some (Fas_storm { f = 12; _ }) -> true | _ -> false);
  check cb "storm" true
    (match scenario_of_string "storm:5" with
    | Some (Random_storm { crashes = 5; _ }) -> true
    | _ -> false);
  check cb "batch" true
    (match scenario_of_string "batch:8" with Some (Batch { size = 8; _ }) -> true | _ -> false);
  check cb "garbage" true (scenario_of_string "whatever" = None);
  check cb "bad int" true (scenario_of_string "fas:x" = None)

let test_workload_deterministic_runs () =
  let cfg =
    {
      Rme.Workload.default_cfg with
      n = 4;
      requests = 5;
      scenario = Rme.Workload.Random_storm { crashes = 3; rate = 0.01 };
    }
  in
  let m1 = Rme.Workload.measure (Rme.Workload.run_key "ba-jjj" cfg) in
  let m2 = Rme.Workload.measure (Rme.Workload.run_key "ba-jjj" cfg) in
  check cb "same seed, same measurement" true (m1 = m2)

(* ------------------------------------------------------------------ *)
(* Spec registry                                                       *)
(* ------------------------------------------------------------------ *)

let test_spec_registry () =
  check cb "headline is ba-jjj" true (Rme.Spec.headline.Rme.Spec.key = "ba-jjj");
  check cb "find works" true (Rme.Spec.find "wr" <> None);
  check cb "find_exn raises" true
    (try
       ignore (Rme.Spec.find_exn "no-such-lock");
       false
     with Invalid_argument _ -> true);
  let keys = Rme.Spec.keys () in
  check ci "unique keys" (List.length keys) (List.length (List.sort_uniq compare keys));
  (* every registered lock actually runs *)
  List.iter
    (fun (s : Rme.Spec.t) ->
      let cfg = { Rme.Workload.default_cfg with n = 3; requests = 2 } in
      let m = Rme.Workload.measure (Rme.Workload.run s cfg) in
      check cb (s.key ^ " runs clean") true (m.Rme.Workload.satisfied && m.Rme.Workload.me_ok))
    Rme.Spec.all

let test_spec_crash_safe_flags () =
  (* Every crash_safe lock survives a storm; the non-crash-safe ones are the
     two plain MCS variants. *)
  List.iter
    (fun (s : Rme.Spec.t) ->
      if s.Rme.Spec.crash_safe then begin
        let cfg =
          {
            Rme.Workload.default_cfg with
            n = 3;
            requests = 3;
            scenario = Rme.Workload.Random_storm { crashes = 3; rate = 0.01 };
          }
        in
        let m = Rme.Workload.measure (Rme.Workload.run s cfg) in
        check cb (s.key ^ " survives storm") true m.Rme.Workload.satisfied
      end)
    Rme.Spec.all;
  check cb "mcs flagged unsafe" true
    (not (Rme.Spec.find_exn "mcs").Rme.Spec.crash_safe)

let () =
  Alcotest.run "core"
    [
      ( "vec",
        [
          Alcotest.test_case "basics" `Quick test_vec_basics;
          Alcotest.test_case "bounds" `Quick test_vec_bounds;
          Alcotest.test_case "growth" `Quick test_vec_growth;
          QCheck_alcotest.to_alcotest qcheck_vec_roundtrip;
        ] );
      ( "memory",
        [
          QCheck_alcotest.to_alcotest qcheck_memory_coherence;
          QCheck_alcotest.to_alcotest qcheck_cc_cached_reads_free;
          Alcotest.test_case "forget" `Quick test_memory_forget;
        ] );
      ( "report",
        [
          Alcotest.test_case "fit exponent" `Quick test_fit_exponent;
          Alcotest.test_case "classify" `Quick test_classify;
          Alcotest.test_case "classification names" `Quick test_classification_names;
          Alcotest.test_case "write csv" `Quick test_write_csv;
          Alcotest.test_case "svg chart" `Quick test_svg_chart;
        ] );
      ( "workload",
        [
          Alcotest.test_case "scenario parsing" `Quick test_scenario_parsing;
          Alcotest.test_case "deterministic" `Quick test_workload_deterministic_runs;
        ] );
      ( "spec",
        [
          Alcotest.test_case "registry" `Quick test_spec_registry;
          Alcotest.test_case "crash-safe flags" `Quick test_spec_crash_safe_flags;
        ] );
    ]
