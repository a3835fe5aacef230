open Rme_sim

type scenario =
  | No_failures
  | Fas_storm of { f : int; rate : float }
  | Random_storm of { crashes : int; rate : float }
  | Batch of { size : int; at_step : int; repeat : int; gap : int }
  | Impatient of { timeout_steps : int; retries : int; backoff : float }

let pp_scenario ppf = function
  | No_failures -> Fmt.string ppf "none"
  | Fas_storm { f; rate } -> Fmt.pf ppf "fas-storm(F=%d,rate=%g)" f rate
  | Random_storm { crashes; rate } -> Fmt.pf ppf "random-storm(%d,rate=%g)" crashes rate
  | Batch { size; at_step; repeat; gap } ->
      Fmt.pf ppf "batch(size=%d,at=%d,repeat=%d,gap=%d)" size at_step repeat gap
  | Impatient { timeout_steps; retries; backoff } ->
      Fmt.pf ppf "impatient(T=%d,retries=%d,backoff=%g)" timeout_steps retries backoff

(* The ranges the plan constructors accept, checked here so that bad input
   is a parse failure rather than an [Invalid_argument] from a plan. *)
let in_range = function
  | No_failures -> true
  | Fas_storm { f = k; rate } | Random_storm { crashes = k; rate } ->
      k >= 0 && rate >= 0.0 && rate <= 1.0
  | Batch { size; at_step; repeat; gap } -> size >= 0 && at_step >= 0 && repeat >= 0 && gap >= 0
  | Impatient { timeout_steps; retries; backoff } ->
      timeout_steps > 0 && retries >= 0 && backoff >= 1.0

(* Accepts both the compact command-line grammar ("fas:3", "impatient:40:3:2")
   and the exact {!pp_scenario} rendering, so a scenario printed in a log or
   a report line can be fed straight back in (the round-trip the tests pin). *)
let parse_scenario s =
  let scan fmt f =
    try Some (Scanf.sscanf s fmt f) with Scanf.Scan_failure _ | Failure _ | End_of_file -> None
  in
  match String.split_on_char ':' s with
  | [ "none" ] -> Some No_failures
  | [ "fas"; f ] -> int_of_string_opt f |> Option.map (fun f -> Fas_storm { f; rate = 0.5 })
  | [ "storm"; k ] ->
      int_of_string_opt k |> Option.map (fun crashes -> Random_storm { crashes; rate = 0.01 })
  | [ "batch"; k ] ->
      int_of_string_opt k
      |> Option.map (fun size -> Batch { size; at_step = 200; repeat = 1; gap = 1000 })
  | "impatient" :: t :: ([] | [ _ ] | [ _; _ ] as rest) -> (
      let retries = match rest with r :: _ -> int_of_string_opt r | [] -> Some 3 in
      let backoff = match rest with [ _; b ] -> float_of_string_opt b | _ -> Some 2.0 in
      match (int_of_string_opt t, retries, backoff) with
      | Some timeout_steps, Some retries, Some backoff ->
          Some (Impatient { timeout_steps; retries; backoff })
      | _ -> None)
  | _ ->
      List.find_map
        (fun p -> p ())
        [
          (fun () ->
            scan "fas-storm(F=%d,rate=%f)%!" (fun f rate -> Fas_storm { f; rate }));
          (fun () ->
            scan "random-storm(%d,rate=%f)%!" (fun crashes rate -> Random_storm { crashes; rate }));
          (fun () ->
            scan "batch(size=%d,at=%d,repeat=%d,gap=%d)%!" (fun size at_step repeat gap ->
                Batch { size; at_step; repeat; gap }));
          (fun () ->
            scan "impatient(T=%d,retries=%d,backoff=%f)%!" (fun timeout_steps retries backoff ->
                Impatient { timeout_steps; retries; backoff }));
        ]

let scenario_of_string s =
  Option.bind (parse_scenario s) (fun sc -> if in_range sc then Some sc else None)

let scenario_grammar = "none | fas:F | storm:K | batch:SIZE | impatient:T[:RETRIES[:BACKOFF]]"

let scenario_crash_plan scenario ~seed =
  match scenario with
  | No_failures | Impatient _ -> Crash.none
  | Fas_storm { f; rate } -> Crash.fas_gap ~seed ~rate ~max_crashes:f ~cell_suffix:".tail" ()
  | Random_storm { crashes; rate } -> Crash.random ~seed ~rate ~max_crashes:crashes ()
  | Batch { size; at_step; repeat; gap } ->
      Crash.all
        (List.init repeat (fun r ->
             Crash.batch ~step:(at_step + (r * gap)) ~pids:(List.init size (fun i -> i))))

let scenario_abort_plan scenario =
  match scenario with
  | Impatient { timeout_steps; retries; backoff } -> Abort.impatient ~timeout_steps ~retries ~backoff ()
  | No_failures | Fas_storm _ | Random_storm _ | Batch _ -> Abort.none

type adversary =
  | Holder of { rate : float; max_crashes : int }
  | Window of { rate : float; max_crashes : int }
  | Offender of { victim : int; gap : int; times : int }
  | Storm of { rate : float; max_crashes : int; gap : int; backoff : float }
  | Sys_storm of { rate : float; max_crashes : int; gap : int; backoff : float }
  | Impatient_storm of { rate : float; max_aborts : int; gap : int; backoff : float }
  | Oblivious of scenario option

let pp_adversary ppf = function
  | Holder { rate; max_crashes } -> Fmt.pf ppf "holder(rate=%g,max=%d)" rate max_crashes
  | Window { rate; max_crashes } -> Fmt.pf ppf "window(rate=%g,max=%d)" rate max_crashes
  | Offender { victim; gap; times } ->
      Fmt.pf ppf "offender(p%d,gap=%d,times=%d)" victim gap times
  | Storm { rate; max_crashes; gap; backoff } ->
      Fmt.pf ppf "storm(rate=%g,max=%d,gap=%d,backoff=%g)" rate max_crashes gap backoff
  | Sys_storm { rate; max_crashes; gap; backoff } ->
      Fmt.pf ppf "sys-storm(rate=%g,max=%d,gap=%d,backoff=%g)" rate max_crashes gap backoff
  | Impatient_storm { rate; max_aborts; gap; backoff } ->
      Fmt.pf ppf "impatient-storm(rate=%g,max=%d,gap=%d,backoff=%g)" rate max_aborts gap backoff
  | Oblivious None -> Fmt.string ppf "oblivious"
  | Oblivious (Some sc) -> pp_scenario ppf sc

let standard_adversaries =
  [
    Holder { rate = 0.05; max_crashes = 8 };
    Window { rate = 0.25; max_crashes = 4 };
    Offender { victim = 0; gap = 4; times = 5 };
    Storm { rate = 0.004; max_crashes = 8; gap = 300; backoff = 2.0 };
  ]

let default_sys_storm = Sys_storm { rate = 0.002; max_crashes = 3; gap = 400; backoff = 2.0 }

let default_impatient_storm =
  Impatient_storm { rate = 0.05; max_aborts = 12; gap = 40; backoff = 1.5 }

let adversary_name adv = List.hd (String.split_on_char '(' (Fmt.str "%a" pp_adversary adv))

let adversary_of_string s =
  let s = String.map (function '_' -> '-' | c -> c) (String.lowercase_ascii s) in
  let key = match s with "system-storm" -> "sys-storm" | "impatient" -> "impatient-storm" | k -> k in
  let defaults = standard_adversaries @ [ default_sys_storm; default_impatient_storm ] in
  match List.find_opt (fun adv -> adversary_name adv = key) defaults with
  | Some adv -> Ok adv
  | None ->
      Error
        (Printf.sprintf "unknown adversary %S (%s)" s
           (String.concat "|" (List.map adversary_name defaults)))

type cfg = {
  n : int;
  requests : int;
  model : Memory.model;
  cs_yields : int;
  ncs_yields : int;
  max_steps : int;
}

let default_cfg =
  { n = 4; requests = 3; model = Memory.CC; cs_yields = 3; ncs_yields = 0; max_steps = 400_000 }

(* An oblivious run is a pure function of its seed (and [forced]).  The
   draws keep soak's historical order (record-literal fields right to left),
   so a seed keeps naming the same run. *)
let oblivious forced ~seed =
  let rng = Random.State.make [| seed; 0x50a6 |] in
  let int = Random.State.int rng in
  let n = 2 + int 7 in
  let requests = 2 + int 5 in
  let model = if Random.State.bool rng then Memory.CC else Memory.DSM in
  let scenario =
    match int 5 with
    | 0 -> No_failures
    | 1 -> Fas_storm { f = 1 + int 8; rate = 0.4 }
    | 2 -> Random_storm { crashes = 1 + int n; rate = 0.008 }
    | 3 ->
        (* Batch phase and cadence vary per seed so the batches land in
           different phases of the run (startup, steady state, drain). *)
        let gap = 200 + int 1800 in
        let repeat = 1 + int 3 in
        let at_step = 50 + int 1950 in
        Batch { size = 1 + int n; at_step; repeat; gap }
    | _ ->
        let backoff = 1.0 +. Random.State.float rng 1.5 in
        let retries = 1 + int 4 in
        Impatient { timeout_steps = 20 + int 180; retries; backoff }
  in
  let ncs_yields = int 3 in
  let cs_yields = int 6 in
  ( { n; requests; model; cs_yields; ncs_yields; max_steps = 3_000_000 },
    Option.value forced ~default:scenario )

let setup cfg adversary ~seed =
  match adversary with
  | Oblivious forced ->
      let cfg, scenario = oblivious forced ~seed in
      (cfg, Oblivious (Some scenario))
  | Holder _ | Window _ | Offender _ | Storm _ | Sys_storm _ | Impatient_storm _ -> (cfg, adversary)

let plan adv ~seed =
  match adv with
  | Holder { rate; max_crashes } -> Crash.target_holder ~seed ~rate ~max_crashes ()
  | Window { rate; max_crashes } -> Crash.target_window ~seed ~rate ~max_crashes ()
  | Offender { victim; gap; times } -> Crash.repeat_offender ~victim ~gap ~times
  | Storm { rate; max_crashes; gap; backoff } ->
      Crash.storm ~seed ~rate ~max_crashes ~gap ~backoff ()
  | Sys_storm { rate; max_crashes; gap; backoff } ->
      Crash.system_storm ~seed ~rate ~max_crashes ~gap ~backoff ()
  | Impatient_storm _ -> Crash.none
  | Oblivious sc -> scenario_crash_plan (snd (oblivious sc ~seed)) ~seed:(seed + 7919)

let abort_plan adv ~seed =
  match adv with
  | Impatient_storm { rate; max_aborts; gap; backoff } ->
      Abort.storm ~seed ~rate ~max_aborts ~gap ~backoff ()
  | Holder _ | Window _ | Offender _ | Storm _ | Sys_storm _ -> Abort.none
  | Oblivious sc -> scenario_abort_plan (snd (oblivious sc ~seed))

type run = {
  cfg : cfg;
  adversary : adversary;
  res : Engine.result;
  fired : Crash.fired list;
  ab_fired : Abort.fired list;
  decisions : int Vec.t;
}

(* No NCS body without NCS yields, as in every adaptive run: passing an
   empty one cost rmebench recover 3 minor words per passage. *)
let body cfg =
  let cs = Harness.yields cfg.cs_yields in
  let ncs = if cfg.ncs_yields = 0 then None else Some (Harness.yields cfg.ncs_yields) in
  fun lock ~pid -> Harness.standard_body ~cs ?ncs ~lock ~requests:cfg.requests pid

(* One subject per domain: the arena and run options of the last (make,
   cfg) pair that ran here, and the schedule buffer [run_one] records
   into.  A campaign runs a pair's seeds back to back, so all but its
   first run rewind the arena instead of constructing the subject again;
   a violation's confirm replay and shrink candidates rewind the same
   arena.  The buffer starts
   at 1,024 decisions, above the 700-odd steps a default-config run takes,
   so most runs never grow it.  [run_one] hands the buffer itself back: a
   copy of a run's schedule is too long for the minor heap, so every run
   would allocate one in the major heap, and only a violation reads it. *)
type slot = {
  mutable subject : ((Engine.Ctx.t -> Harness.lock) * cfg * Engine.arena * Engine.opts) option;
  decisions : int Vec.t;
}

let slot = Domain.DLS.new_key (fun () -> { subject = None; decisions = Vec.make 1024 0 })

(* [make]'s subject for [cfg]: the slot's on a hit ([make] physically
   equal, [cfg] structurally), else a new one that replaces it. *)
let subject cfg ~make =
  let s = Domain.DLS.get slot in
  match s.subject with
  | Some ((m, c, _, _) as sub) when m == make && c = cfg -> sub
  | Some _ | None ->
      let sub =
        ( make,
          cfg,
          Engine.arena ~n:cfg.n ~model:cfg.model ~setup:make ~body:(body cfg),
          Engine.opts ~max_steps:cfg.max_steps () )
      in
      s.subject <- Some sub;
      sub

let arena cfg ~make =
  let _, _, a, _ = subject cfg ~make in
  a

let run_one cfg ~make ~adversary ~seed =
  let cfg, adversary = setup cfg adversary ~seed in
  let _, _, arena, opts = subject cfg ~make in
  let decisions = (Domain.DLS.get slot).decisions in
  Vec.clear decisions;
  let sched = Sched.recording ~inner:(Sched.random ~seed) ~decisions in
  let res =
    Engine.run_in opts ~arena ~crash:(plan adversary ~seed) ~abort:(abort_plan adversary ~seed)
      (Sched sched)
  in
  {
    cfg;
    adversary;
    res;
    fired = res.crash_log;
    ab_fired = Engine.abort_log res;
    decisions;
  }

let replay_in arena cfg ~fired ~ab_fired ~decisions =
  let res, diverged =
    Explore.replay ~record:true ~max_steps:cfg.max_steps ~abort:(Abort.replay_fired ab_fired)
      ~arena ~decisions ~crash:(Crash.replay_fired fired) ()
  in
  (res, diverged <> None)

let replay cfg ~make ~fired ?(ab_fired = []) ~decisions () =
  replay_in (arena cfg ~make) cfg ~fired ~ab_fired ~decisions

let shrink_in arena cfg ~fired ~ab_fired ~check trace =
  Array.of_list
    (Explore.shrink
       ~reproduces:(fun t ->
         let res, diverged = replay_in arena cfg ~fired ~ab_fired ~decisions:(Array.of_list t) in
         (not diverged) && check res <> None)
       (Array.to_list trace))

let shrink_witness cfg ~make ~fired ?(ab_fired = []) ~check trace =
  shrink_in (arena cfg ~make) cfg ~fired ~ab_fired ~check trace

type case = {
  case_name : string;
  case_make : Engine.Ctx.t -> Harness.lock;
  case_weak : bool;
  case_ff_bound : int option;
  case_abortable : bool;
}

let battery case ~requests res =
  let weak_lock_ids = if case.case_weak then [ 0 ] else [] in
  let abort = if case.case_abortable then Some Props.default_abort_expect else None in
  Props.check_battery ?abort res ~requests ~weak_lock_ids
  @
  match case.case_ff_bound with
  | None -> []
  | Some bound -> (
      match Props.failure_free_rmr res ~bound with
      | None -> []
      | Some msg -> [ "ff-rmr: " ^ msg ])

type violation = {
  v_case : string;
  v_adversary : adversary;
  v_seed : int;
  v_problems : string list;
  v_fired : Crash.fired list;
  v_ab_fired : Abort.fired list;
  v_replay_ok : bool;
  v_witness : int array;
  v_detect_steps : int;
}

let pp_point ppf = function
  | Crash.Before -> Fmt.string ppf "before"
  | Crash.After -> Fmt.string ppf "after"

let pp_fired ppf (f : Crash.fired) =
  if f.f_async then
    if f.f_pid < 0 then Fmt.pf ppf "system(step %d)" f.f_step
    else Fmt.pf ppf "p%d@async(step %d)" f.f_pid f.f_step
  else Fmt.pf ppf "p%d@op%d(%a,step %d)" f.f_pid f.f_op_index pp_point f.f_point f.f_step

let pp_ab_fired ppf (a : Abort.fired) =
  if a.a_async then Fmt.pf ppf "abort:p%d@async(step %d)" a.a_pid a.a_step
  else Fmt.pf ppf "abort:p%d@op%d(step %d)" a.a_pid a.a_op_index a.a_step

let pp_violation ppf v =
  Fmt.pf ppf "@[<v2>%s seed=%d adversary=%a:@,%a@,fired: %a%s%a@,replay %s, witness %d decisions@]"
    v.v_case v.v_seed pp_adversary v.v_adversary
    Fmt.(list ~sep:cut string)
    v.v_problems
    Fmt.(list ~sep:(any " ") pp_fired)
    v.v_fired
    (if v.v_fired <> [] && v.v_ab_fired <> [] then " " else "")
    Fmt.(list ~sep:(any " ") pp_ab_fired)
    v.v_ab_fired
    (if v.v_replay_ok then "confirmed" else "UNFAITHFUL")
    (Array.length v.v_witness)

type outcome = {
  runs : int;
  steps : int;
  crashes : int;
  aborts : int;
  detect_steps : int;
  detect_runs : int;
  violations : violation list;
}

(* The property a problem string reports, e.g. "mutual-exclusion". *)
let prop_of problem =
  match String.index_opt problem ':' with
  | Some i -> String.sub problem 0 i
  | None -> problem

(* Steps from the first injected failure, crash or abort, to the end of
   the run; [None] when the adversary fired nothing. *)
let detect_latency (r : run) =
  let first =
    match (r.fired, r.ab_fired) with
    | f :: _, a :: _ -> Some (min f.Crash.f_step a.Abort.a_step)
    | f :: _, [] -> Some f.Crash.f_step
    | [], a :: _ -> Some a.Abort.a_step
    | [], [] -> None
  in
  Option.map (fun s -> r.res.Engine.steps - s) first

let confirm_and_shrink case ~seed (r : run) problems =
  let prop = prop_of (List.hd problems) in
  let check res =
    if List.exists (fun p -> prop_of p = prop) (battery case ~requests:r.cfg.requests res) then
      Some prop
    else None
  in
  let arena = arena r.cfg ~make:case.case_make in
  let decisions = Vec.to_array r.decisions in
  let replay_res, diverged = replay_in arena r.cfg ~fired:r.fired ~ab_fired:r.ab_fired ~decisions in
  let replay_ok = (not diverged) && check replay_res <> None in
  let witness =
    if replay_ok then shrink_in arena r.cfg ~fired:r.fired ~ab_fired:r.ab_fired ~check decisions
    else decisions
  in
  {
    v_case = case.case_name;
    v_adversary = r.adversary;
    v_seed = seed;
    v_problems = problems;
    v_fired = r.fired;
    v_ab_fired = r.ab_fired;
    v_replay_ok = replay_ok;
    v_witness = witness;
    v_detect_steps = Option.value (detect_latency r) ~default:0;
  }

let campaign ?(cfg = default_cfg) ?(jobs = 1) ~adversaries ~runs ~seed_base cases =
  let tasks =
    Array.of_list
      (List.concat_map
         (fun case ->
           List.concat_map
             (fun adv -> List.init runs (fun i -> (case, adv, seed_base + i)))
             adversaries)
         cases)
  in
  (* Each task is independent and seeded; Pool reports in task order, so
     the outcome does not depend on the domain count. *)
  let results =
    Pool.map ~domains:jobs ~tasks (fun (case, adv, seed) ->
        let r = run_one cfg ~make:case.case_make ~adversary:adv ~seed in
        let problems = battery case ~requests:r.cfg.requests r.res in
        let v = if problems = [] then None else Some (confirm_and_shrink case ~seed r problems) in
        (r.res.Engine.steps, r.res.Engine.total_crashes, List.length r.ab_fired, detect_latency r, v))
  in
  let steps = ref 0 and crashes = ref 0 and aborts = ref 0 and violations = ref [] in
  let detect_steps = ref 0 and detect_runs = ref 0 in
  Array.iter
    (fun (s, c, a, detect, v) ->
      steps := !steps + s;
      crashes := !crashes + c;
      aborts := !aborts + a;
      (match detect with
      | Some d ->
          detect_steps := !detect_steps + d;
          incr detect_runs
      | None -> ());
      match v with Some v -> violations := v :: !violations | None -> ())
    results;
  {
    runs = Array.length results;
    steps = !steps;
    crashes = !crashes;
    aborts = !aborts;
    detect_steps = !detect_steps;
    detect_runs = !detect_runs;
    violations = List.rev !violations;
  }
