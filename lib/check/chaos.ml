open Rme_sim

type adversary =
  | Holder of { rate : float; max_crashes : int }
  | Window of { rate : float; max_crashes : int }
  | Offender of { victim : int; gap : int; times : int }
  | Storm of { rate : float; max_crashes : int; gap : int; backoff : float }
  | Sys_storm of { rate : float; max_crashes : int; gap : int; backoff : float }
  | Impatient_storm of { rate : float; max_aborts : int; gap : int; backoff : float }

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

(* An adversary's CLI name: its rendering up to the parameter list. *)
let name adv = List.hd (String.split_on_char '(' (Fmt.str "%a" pp_adversary adv))

let adversary_of_string s =
  let s = String.map (function '_' -> '-' | c -> c) (String.lowercase_ascii s) in
  let key = match s with "system-storm" -> "sys-storm" | "impatient" -> "impatient-storm" | k -> k in
  let defaults = standard_adversaries @ [ default_sys_storm; default_impatient_storm ] in
  match List.find_opt (fun adv -> name adv = key) defaults with
  | Some adv -> Ok adv
  | None ->
      Error
        (Printf.sprintf "unknown adversary %S (%s)" s
           (String.concat "|" (List.map name defaults)))

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

let abort_plan adv ~seed =
  match adv with
  | Impatient_storm { rate; max_aborts; gap; backoff } ->
      Abort.storm ~seed ~rate ~max_aborts ~gap ~backoff ()
  | Holder _ | Window _ | Offender _ | Storm _ | Sys_storm _ -> Abort.none

type cfg = {
  n : int;
  requests : int;
  model : Memory.model;
  cs_yields : int;
  max_steps : int;
}

let default_cfg = { n = 4; requests = 3; model = Memory.CC; cs_yields = 3; max_steps = 400_000 }

let cs_of cfg ~pid:_ =
  for _ = 1 to cfg.cs_yields do
    Api.yield ()
  done

type run = {
  res : Engine.result;
  fired : Crash.fired list;
  ab_fired : Abort.fired list;
  decisions : int array;
}

(* The recorded schedule starts at 1,024 decisions, above the 700-odd
   steps a default-config run takes, so most runs never grow it. *)
let run_one cfg ~make ~adversary ~seed =
  let decisions = Vec.make (min cfg.max_steps 1024) 0 in
  let crash, fired = Crash.record_fired (plan adversary ~seed) in
  let abort, ab_fired = Abort.record_fired (abort_plan adversary ~seed) in
  let sched = Sched.recording ~inner:(Sched.random ~seed) ~decisions in
  let res =
    Harness.run_lock ~record:true ~max_steps:cfg.max_steps ~cs:(cs_of cfg) ~n:cfg.n
      ~model:cfg.model ~sched ~crash ~abort ~requests:cfg.requests ~make ()
  in
  { res; fired = fired (); ab_fired = ab_fired (); decisions = Vec.to_array decisions }

let replay cfg ~make ~fired ?(ab_fired = []) ~decisions () =
  let abort = if ab_fired = [] then Abort.none else Abort.replay_fired ab_fired in
  let res, diverged =
    Explore.replay ~record:true ~max_steps:cfg.max_steps ~abort ~decisions
      ~n:cfg.n ~model:cfg.model ~crash:(Crash.replay_fired fired) ~setup:make
      ~body:(fun lock ~pid -> Harness.standard_body ~cs:(cs_of cfg) ~lock ~requests:cfg.requests pid)
      ()
  in
  (res, diverged <> None)

let shrink_witness cfg ~make ~fired ?(ab_fired = []) ~check trace =
  Array.of_list
    (Explore.shrink
       ~reproduces:(fun t ->
         let res, diverged = replay cfg ~make ~fired ~ab_fired ~decisions:(Array.of_list t) () in
         (not diverged) && check res <> None)
       (Array.to_list trace))

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

let confirm_and_shrink cfg case ~requests (adv : adversary) ~seed (r : run) problems =
  let prop = prop_of (List.hd problems) in
  let check res =
    if List.exists (fun p -> prop_of p = prop) (battery case ~requests res) then Some prop
    else None
  in
  let replay_res, diverged =
    replay cfg ~make:case.case_make ~fired:r.fired ~ab_fired:r.ab_fired ~decisions:r.decisions ()
  in
  let replay_ok = (not diverged) && check replay_res <> None in
  let witness =
    if replay_ok then
      shrink_witness cfg ~make:case.case_make ~fired:r.fired ~ab_fired:r.ab_fired ~check
        r.decisions
    else r.decisions
  in
  {
    v_case = case.case_name;
    v_adversary = adv;
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
        let problems = battery case ~requests:cfg.requests r.res in
        let v =
          if problems = [] then None
          else Some (confirm_and_shrink cfg case ~requests:cfg.requests adv ~seed r problems)
        in
        (r.res.Engine.total_crashes, List.length r.ab_fired, detect_latency r, v))
  in
  let crashes = ref 0 and aborts = ref 0 and violations = ref [] in
  let detect_steps = ref 0 and detect_runs = ref 0 in
  Array.iter
    (fun (c, a, detect, v) ->
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
    crashes = !crashes;
    aborts = !aborts;
    detect_steps = !detect_steps;
    detect_runs = !detect_runs;
    violations = List.rev !violations;
  }
