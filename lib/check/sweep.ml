open Rme_sim

(* ------------------------------------------------------------------ *)
(* Sites                                                               *)
(* ------------------------------------------------------------------ *)

type site = { pid : int; op_index : int; kind : Api.kind; cell : string option; step : int }

let site_label s =
  Fmt.str "p%d#%d %a%s" s.pid s.op_index Api.pp_kind s.kind
    (match s.cell with Some c -> " " ^ c | None -> "")

let pp_site ppf s = Fmt.string ppf (site_label s)

let site_signature s =
  Fmt.str "%a/%s/%d" Api.pp_kind s.kind
    (match s.cell with Some c -> c | None -> "-")
    s.op_index

(* ------------------------------------------------------------------ *)
(* Plans                                                               *)
(* ------------------------------------------------------------------ *)

type plan =
  | No_crash
  | Single of site * Crash.point
  | Async_park of site
  | Pair of (site * Crash.point) * (site * Crash.point)
  | System of int
  | Sys_pair of int * int

let point_string = function Crash.Before -> "before" | Crash.After -> "after"

let plan_label = function
  | No_crash -> "no-crash"
  | Single (s, pt) -> point_string pt ^ " " ^ site_label s
  | Async_park s -> "async@" ^ site_label s
  | Pair ((s1, p1), (s2, p2)) ->
      Printf.sprintf "%s %s + %s %s" (point_string p1) (site_label s1) (point_string p2)
        (site_label s2)
  | System step -> Printf.sprintf "system@%d" step
  | Sys_pair (s1, s2) -> Printf.sprintf "system@%d + system@%d" s1 s2

let crash_of_plan plan () =
  match plan with
  | No_crash -> Crash.none
  | Single (s, pt) -> Crash.at_op ~pid:s.pid ~nth:s.op_index pt
  (* +1: the plan must fire strictly after the spin instruction executed,
     i.e. while the process is (potentially) parked on it. *)
  | Async_park s -> Crash.async_at [ (s.step + 1, s.pid) ]
  | Pair ((s1, p1), (s2, p2)) ->
      Crash.all
        [
          Crash.at_op ~pid:s1.pid ~nth:s1.op_index p1;
          Crash.at_op ~pid:s2.pid ~nth:s2.op_index p2;
        ]
  | System step -> Crash.system_at ~step
  | Sys_pair (s1, s2) -> Crash.all [ Crash.system_at ~step:s1; Crash.system_at ~step:s2 ]

(* ------------------------------------------------------------------ *)
(* Scenarios, properties, configuration                                *)
(* ------------------------------------------------------------------ *)

type scenario = Scenario : { setup : Engine.Ctx.t -> 'a; body : 'a -> pid:int -> unit } -> scenario

let lock_scenario ?(cs_yields = 4) ~requests make =
  let cs = Harness.yields cs_yields in
  Scenario
    { setup = make; body = (fun lock ~pid -> Harness.standard_body ~cs ~lock ~requests pid) }

type prop = {
  prop_name : string;
  check : Engine.result -> string option;
  expected_under_crash : bool;
  needs_record : bool;
}

let me_prop ?(expected_under_crash = false) () =
  {
    prop_name = "ME";
    check = Props.mutual_exclusion;
    expected_under_crash;
    needs_record = false;
  }

let sf_prop ?(expected_under_crash = false) ~requests () =
  {
    prop_name = "SF";
    check = (fun res -> Props.starvation_freedom res ~requests);
    expected_under_crash;
    needs_record = false;
  }

let weak_me_prop ~lock_id =
  {
    prop_name = "weakME";
    check = (fun res -> Props.weak_me_intervals res ~lock_id);
    expected_under_crash = false;
    needs_record = true;
  }

let responsiveness_prop ~lock_id =
  {
    prop_name = "resp";
    check = (fun res -> Props.responsiveness res ~lock_id);
    expected_under_crash = false;
    needs_record = false;
  }

let abort_liveness_prop ~supported =
  {
    prop_name = "abortLive";
    check =
      (fun res ->
        Props.abort_liveness res ~bound:Props.default_abort_expect.Props.liveness_bound
          ~supported);
    expected_under_crash = false;
    needs_record = false;
  }

let no_lost_wakeup_prop () =
  {
    prop_name = "noLostWakeup";
    check =
      (fun res ->
        Props.no_lost_wakeup res ~bound:Props.default_abort_expect.Props.overtake_bound);
    expected_under_crash = false;
    needs_record = true;
  }

let abort_rmr_prop () =
  {
    prop_name = "abortRMR";
    check =
      (fun res -> Props.abort_rmr res ~bound:Props.default_abort_expect.Props.rmr_bound);
    expected_under_crash = false;
    needs_record = false;
  }

type crash_model = Per_process | System_wide

let crash_model_string = function Per_process -> "per-process" | System_wide -> "system-wide"

type cfg = {
  max_runs_per_plan : int;
  max_steps : int;
  budget : int;
  site_cap : int;
  plan_cap : int;
  crash_model : crash_model;
  abort_timeout : int option;
  jobs : int;
}

let default_cfg =
  {
    max_runs_per_plan = 300;
    max_steps = 4_000;
    budget = 1;
    site_cap = 96;
    plan_cap = 256;
    crash_model = Per_process;
    abort_timeout = None;
    jobs = 1;
  }

(* ------------------------------------------------------------------ *)
(* The sweep                                                           *)
(* ------------------------------------------------------------------ *)

type finding = {
  f_plan : plan;
  f_prop : string;
  f_message : string;
  f_witness : int list;
  f_expected : bool;
}

let pp_finding ppf f =
  Fmt.pf ppf "%s%s under [%s]: %s (witness %a)" f.f_prop
    (if f.f_expected then " (expected)" else " FAIL")
    (plan_label f.f_plan) f.f_message
    Fmt.(Dump.list int)
    f.f_witness

type campaign = {
  sites_seen : int;
  sites : site list;
  sites_truncated : bool;
  plans_total : int;
  plans_run : int;
  plans_truncated : bool;
  plans_exhausted : int;
  runs : int;
  findings : finding list;
}

let take k l = List.filteri (fun i _ -> i < k) l

let discover cfg ~n ~model scenario =
  match scenario with
  | Scenario { setup; body } ->
      let seen = ref 0 in
      let acc = ref [] in
      let sigs = Hashtbl.create 64 in
      let on_op (info : Crash.op_info) =
        incr seen;
        let s =
          {
            pid = info.pid;
            op_index = info.op_index;
            kind = info.kind;
            cell = info.cell;
            step = info.step;
          }
        in
        let key = site_signature s in
        if not (Hashtbl.mem sigs key) then begin
          Hashtbl.add sigs key ();
          acc := s :: !acc
        end
      in
      (* The crash-free discovery run replays the explorer's root schedule
         (empty decision vector = lowest runnable pid at every point), so
         the discovered op_index anchors transfer to explored runs. *)
      let (_ : Engine.result) =
        Engine.run_in
          (Engine.opts ~max_steps:cfg.max_steps ~on_op ())
          ~arena:(Engine.arena ~n ~model ~setup ~body)
          ~crash:Crash.none ~abort:Abort.none
          (Trace { decisions = [||]; key_at = -1 })
      in
      let sites = List.rev !acc in
      let truncated = List.length sites > cfg.site_cap in
      let sites = if truncated then take cfg.site_cap sites else sites in
      (!seen, sites, truncated)

let plans_of_sites cfg sites =
  if cfg.budget <= 0 then [ No_crash ]
  else
    match cfg.crash_model with
    | Per_process ->
        let singles =
          List.concat_map (fun s -> [ Single (s, Crash.Before); Single (s, Crash.After) ]) sites
        in
        let parks =
          List.filter_map (fun s -> if s.kind = Api.Spin then Some (Async_park s) else None) sites
        in
        let pairs =
          if cfg.budget < 2 then []
          else
            let rec go = function
              | [] -> []
              | s :: rest ->
                  List.map (fun s' -> Pair ((s, Crash.After), (s', Crash.After))) rest @ go rest
            in
            go sites
        in
        (No_crash :: singles) @ parks @ pairs
    | System_wide ->
        (* The whole system crashes at once, so the only free coordinate is
           {e when}: one plan per distinct global step a (deduplicated)
           site executed at in the discovery run — every phase the
           algorithm passes through is hit at least once — plus ordered
           step pairs when the budget allows a second crash (recovery
           itself re-crashed). *)
        let steps = List.sort_uniq compare (List.map (fun s -> s.step) sites) in
        let singles = List.map (fun st -> System st) steps in
        let pairs =
          if cfg.budget < 2 then []
          else
            let rec go = function
              | [] -> []
              | st :: rest -> List.map (fun st' -> Sys_pair (st, st')) rest @ go rest
            in
            go steps
        in
        (No_crash :: singles) @ pairs

(* The per-plan violation message is tagged with the property that raised
   it; the explorer's [check] returns a single string, so the tag travels
   in-band behind a separator no checker message contains. *)
let tag_sep = '\x1f'

let check_of props res =
  let rec go = function
    | [] -> None
    | p :: rest -> (
        match p.check res with
        | Some msg -> Some (Printf.sprintf "%s%c%s" p.prop_name tag_sep msg)
        | None -> go rest)
  in
  go props

let split_tagged tagged =
  match String.index_opt tagged tag_sep with
  | Some i -> (String.sub tagged 0 i, String.sub tagged (i + 1) (String.length tagged - i - 1))
  | None -> ("?", tagged)

let abort_of_cfg cfg () =
  match cfg.abort_timeout with
  | None -> Abort.none
  | Some timeout_steps -> Abort.impatient ~timeout_steps ()

(* Expectation classes: under No_crash every violation is a FAIL; under a
   crashing plan the expected properties are checked in a separate second
   pass, so an expected violation (e.g. WR-Lock's FAS-gap ME overlap) can
   never mask a FAIL of the same plan. *)
let classes_of plan props =
  match plan with
  | No_crash -> [ (props, false) ]
  | _ ->
      let expected, unexpected = List.partition (fun p -> p.expected_under_crash) props in
      (match unexpected with [] -> [] | ps -> [ (ps, false) ])
      @ match expected with [] -> [] | ps -> [ (ps, true) ]

(* One plan, every expectation class, each explored by the sequential
   explorer: [(outcome, expected)] per class, in class order. *)
let sweep_plan cfg ~n ~model ~props scenario plan =
  let abort = abort_of_cfg cfg in
  match scenario with
  | Scenario { setup; body } ->
      List.map
        (fun (ps, expected) ->
          let record = List.exists (fun p -> p.needs_record) ps in
          ( Explore.explore ~max_runs:cfg.max_runs_per_plan ~max_steps:cfg.max_steps ~record
              ~abort ~n ~model ~crash:(crash_of_plan plan) ~setup ~body ~check:(check_of ps) (),
            expected ))
        (classes_of plan props)

let sweep cfg ~n ~model ~props scenario =
  let sites_seen, sites, sites_truncated = discover cfg ~n ~model scenario in
  let all_plans = plans_of_sites cfg sites in
  let plans_total = List.length all_plans in
  let plans_truncated = plans_total > cfg.plan_cap in
  let plans = if plans_truncated then take cfg.plan_cap all_plans else all_plans in
  (* Plans are independent searches: shard them across domains and merge
     in plan order, so everything below is the same for every [jobs]. *)
  let per_plan =
    Pool.map ~domains:cfg.jobs ~tasks:(Array.of_list plans) (fun plan ->
        (plan, sweep_plan cfg ~n ~model ~props scenario plan))
  in
  let per_plan = Array.to_list per_plan in
  let findings =
    List.concat_map
      (fun (plan, classes) ->
        List.filter_map
          (fun ((o : Explore.outcome), expected) ->
            Option.map
              (fun (tagged, witness) ->
                let prop_name, msg = split_tagged tagged in
                {
                  f_plan = plan;
                  f_prop = prop_name;
                  f_message = msg;
                  f_witness = witness;
                  f_expected = expected;
                })
              o.violation)
          classes)
      per_plan
  in
  {
    sites_seen;
    sites;
    sites_truncated;
    plans_total;
    plans_run = List.length plans;
    plans_truncated;
    plans_exhausted =
      List.length
        (List.filter
           (fun (_, classes) ->
             List.for_all (fun ((o : Explore.outcome), _) -> o.exhausted) classes)
           per_plan);
    runs =
      List.fold_left
        (fun acc (_, classes) ->
          List.fold_left (fun acc ((o : Explore.outcome), _) -> acc + o.runs) acc classes)
        0 per_plan;
    findings;
  }

(* ------------------------------------------------------------------ *)
(* The conformance matrix                                              *)
(* ------------------------------------------------------------------ *)

type subject = {
  subject_name : string;
  subject_n : int;
  subject_scenario : scenario;
  subject_props : prop list;
}

let standard_subject ~name ~n ~requests ?cs_yields ?(abortable = false) ~recoverability make =
  let abort_props =
    if abortable then
      [ abort_liveness_prop ~supported:true; no_lost_wakeup_prop (); abort_rmr_prop () ]
    else []
  in
  let props =
    match recoverability with
    | `Strong -> [ me_prop (); sf_prop ~requests () ]
    | `None ->
        (* Not crash-recoverable: a crash may wedge the queue, so deadlock
           under a crashing plan is the expected failure mode — but ME must
           survive anyway. *)
        [ me_prop (); sf_prop ~expected_under_crash:true ~requests () ]
    | `Weak ->
        (* Registered weakly recoverable locks take lock id 0 (the lock
           registers itself first in setup). *)
        [ me_prop ~expected_under_crash:true (); weak_me_prop ~lock_id:0;
          responsiveness_prop ~lock_id:0 ]
  in
  {
    subject_name = name;
    subject_n = n;
    subject_scenario = lock_scenario ?cs_yields ~requests make;
    subject_props = props @ abort_props;
  }

type verdict = Pass | Expected of int | Fail of finding

let verdict_string = function
  | Pass -> "pass"
  | Expected k -> Printf.sprintf "expected(%d)" k
  | Fail _ -> "FAIL"

type mrow = { row_subject : string; row_verdicts : (string * verdict) list; row_campaign : campaign }

let matrix cfg ~model ~subjects =
  List.map
    (fun s ->
      let campaign = sweep cfg ~n:s.subject_n ~model ~props:s.subject_props s.subject_scenario in
      let verdict_of prop =
        let mine = List.filter (fun f -> f.f_prop = prop.prop_name) campaign.findings in
        match List.find_opt (fun f -> not f.f_expected) mine with
        | Some f -> Fail f
        | None -> ( match List.length mine with 0 -> Pass | k -> Expected k)
      in
      {
        row_subject = s.subject_name;
        row_verdicts = List.map (fun p -> (p.prop_name, verdict_of p)) s.subject_props;
        row_campaign = campaign;
      })
    subjects

let prop_columns rows =
  List.fold_left
    (fun acc row ->
      List.fold_left
        (fun acc (name, _) -> if List.mem name acc then acc else acc @ [ name ])
        acc row.row_verdicts)
    [] rows

let matrix_cells rows =
  let props = prop_columns rows in
  let header = ("lock" :: props) @ [ "sites"; "plans"; "exhausted"; "truncated" ] in
  let cells =
    List.map
      (fun row ->
        let c = row.row_campaign in
        let cell name =
          match List.assoc_opt name row.row_verdicts with
          | Some v -> verdict_string v
          | None -> "-"
        in
        let trunc =
          match (c.sites_truncated, c.plans_truncated) with
          | false, false -> "-"
          | true, false -> "sites"
          | false, true -> "plans"
          | true, true -> "sites+plans"
        in
        (row.row_subject :: List.map cell props)
        @ [
            Printf.sprintf "%d/%d" (List.length c.sites) c.sites_seen;
            Printf.sprintf "%d/%d" c.plans_run c.plans_total;
            Printf.sprintf "%d/%d" c.plans_exhausted c.plans_run;
            trunc;
          ])
      rows
  in
  (header, cells)

let matrix_details rows =
  List.concat_map
    (fun row ->
      let c = row.row_campaign in
      let fails =
        List.filter_map
          (fun f ->
            if f.f_expected then None
            else
              Some
                (Fmt.str "%s: %s FAIL under [%s]: %s; witness=%a" row.row_subject f.f_prop
                   (plan_label f.f_plan) f.f_message
                   Fmt.(Dump.list int)
                   f.f_witness))
          c.findings
      in
      let truncs =
        (if c.sites_truncated then
           [
             Printf.sprintf "%s: site list truncated to %d of %d executed sites" row.row_subject
               (List.length c.sites) c.sites_seen;
           ]
         else [])
        @
        if c.plans_truncated then
          [
            Printf.sprintf "%s: plan list truncated to %d of %d plans" row.row_subject
              c.plans_run c.plans_total;
          ]
        else []
      in
      let samples =
        if c.plans_exhausted < c.plans_run then
          [
            Printf.sprintf
              "%s: %d of %d plans stopped at the per-plan run budget or a violation, so their \
               verdicts cover a sample of schedules"
              row.row_subject (c.plans_run - c.plans_exhausted) c.plans_run;
          ]
        else []
      in
      fails @ truncs @ samples)
    rows

let matrix_failures rows =
  List.concat_map
    (fun row ->
      List.filter_map
        (fun f -> if f.f_expected then None else Some (row.row_subject, f))
        row.row_campaign.findings)
    rows
