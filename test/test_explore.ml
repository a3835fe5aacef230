(* Tests for the bounded exhaustive explorer: it must find seeded bugs
   (and shrink their witnessing schedules), and must pass correct locks. *)

open Rme_sim
open Rme_locks
open Rme_check

let check = Alcotest.check

let cb = Alcotest.bool

let ci = Alcotest.int

(* A deliberately broken 2-process mutex: test-and-test-and-set with a
   non-atomic check-then-write — the classic race.  Raw closures (no
   instrumentation) keep the schedule tree small enough to exhaust. *)
let broken_mutex ctx =
  let mem = Engine.Ctx.memory ctx in
  let owner = Memory.alloc mem ~name:"racy.owner" 0 in
  {
    Lock.name = "racy";
    acquire =
      (fun ~pid ->
        let rec try_ () =
          if Api.read owner = 0 then Api.write owner (pid + 1) (* racy: not a CAS *)
          else begin
            Api.spin_until owner (Api.Eq 0);
            try_ ()
          end
        in
        try_ ());
    release = (fun ~pid:_ -> Api.write owner 0);
    try_abort = None;
  }

(* Minimal one-request body: just the lock ops plus the CS markers, so the
   full interleaving tree of two processes stays enumerable. *)
let tiny_body lock ~pid =
  if Api.completed_requests () < 1 then begin
    Api.note (Event.Seg Event.Req_begin);
    lock.Lock.acquire ~pid;
    Api.note (Event.Seg Event.Cs_begin);
    Api.note (Event.Seg Event.Cs_end);
    lock.Lock.release ~pid;
    Api.note (Event.Seg Event.Req_done)
  end

let explore_lock ?(max_runs = 50_000) ?shrink_violations ~make () =
  Explore.explore ~max_runs ?shrink_violations ~n:2 ~model:Memory.CC
    ~crash:(fun () -> Crash.none)
    ~setup:make ~body:tiny_body
    ~check:(fun res ->
      if res.Engine.cs_max > 1 then Some "ME violation"
      else if res.Engine.deadlocked then Some "deadlock"
      else None)
    ()

let test_finds_seeded_race () =
  let outcome = explore_lock ~make:broken_mutex () in
  match outcome.Explore.violation with
  | None -> Alcotest.failf "explorer missed the seeded race (%d runs)" outcome.Explore.runs
  | Some (msg, trace) ->
      check cb "message" true (msg = "ME violation");
      check cb "a violating search is not exhaustive" false outcome.Explore.exhausted;
      (* The witness is shrunk: positional decision vectors limit how far a
         greedy zeroing pass can go, but the trace must stay small. *)
      let nonzero = List.length (List.filter (fun d -> d <> 0) trace) in
      check cb
        (Printf.sprintf "shrunk witness (%d non-default decisions, len %d)" nonzero
           (List.length trace))
        true
        (nonzero <= 8 && List.length trace <= 30)

let test_passes_correct_locks () =
  (* Exhaustive for the one-cell locks; bounded for the larger ones. *)
  List.iter
    (fun (name, max_runs, make) ->
      let outcome = explore_lock ~max_runs ~make () in
      check cb (name ^ " clean") true (outcome.Explore.violation = None))
    [
      ("tas", 60_000, Tas_lock.make);
      ("wr", 8_000, Wr_lock.make);
      ("bakery", 8_000, Bakery.make);
      ("arbitrator", 8_000, fun ctx -> Arbitrator.as_two_process_lock (Arbitrator.create ctx) ~n:2);
    ]

let test_finds_mcs_wedge_under_crash () =
  (* The explorer also finds liveness bugs: plain MCS with a crash of the
     lock holder deadlocks under some (here: most) schedules. *)
  let outcome =
    Explore.explore ~max_runs:2_000 ~max_steps:5_000 ~n:2 ~model:Memory.CC
      ~crash:(fun () -> Crash.on_kind ~pid:0 ~kind:Api.Note ~occurrence:2 Crash.After)
      ~setup:Mcs.make
      ~body:(fun lock ~pid -> tiny_body lock ~pid)
      ~check:(fun res ->
        if res.Engine.deadlocked || res.Engine.timed_out then Some "stuck" else None)
      ()
  in
  check cb "found the wedge" true (outcome.Explore.violation <> None)

let test_shrink_unit () =
  (* Reproduces iff some decision >= 2 appears at position 1. *)
  let reproduces t = match t with _ :: d :: _ -> d >= 2 | _ -> false in
  let shrunk = Explore.shrink ~reproduces [ 1; 3; 1; 0; 2; 0 ] in
  check cb "still reproduces" true (reproduces shrunk);
  check (Alcotest.list ci) "minimal" [ 0; 3 ] shrunk

let test_shrink_keeps_nonreproducing_input () =
  let reproduces _ = false in
  check (Alcotest.list ci) "unchanged" [ 1; 2 ] (Explore.shrink ~reproduces [ 1; 2 ])

let test_exhaustive_small_program () =
  (* Two processes, two instructions each: 4C2 = 6 interleavings. *)
  let explore por =
    Explore.explore ~por ~max_runs:5_000 ~n:2 ~model:Memory.CC
      ~crash:(fun () -> Crash.none)
      ~setup:(fun ctx -> Memory.alloc (Engine.Ctx.memory ctx) ~name:"c" 0)
      ~body:(fun c ~pid:_ ->
        if Api.completed_requests () < 1 then begin
          Api.note (Event.Seg Event.Req_begin);
          Api.write c 1;
          Api.write c 2;
          Api.note (Event.Seg Event.Req_done)
        end)
      ~check:(fun _ -> None)
      ()
  in
  let plain = explore `Off in
  check cb "exhausted" true plain.Explore.exhausted;
  check cb
    (Printf.sprintf "several interleavings (%d)" plain.Explore.runs)
    true
    (plain.Explore.runs > 50);
  (* The same tree under POR: the note/dispatch steps are local and get
     slept away, but the same-cell writes stay dependent — the search
     still exhausts, with strictly fewer runs. *)
  let por = explore `Sleep in
  check cb "por exhausted" true por.Explore.exhausted;
  check cb
    (Printf.sprintf "por prunes (%d < %d)" por.Explore.runs plain.Explore.runs)
    true
    (por.Explore.runs < plain.Explore.runs);
  let src = explore `Source in
  check cb "source exhausted" true src.Explore.exhausted;
  check cb
    (Printf.sprintf "source never exceeds sleep (%d <= %d)" src.Explore.runs por.Explore.runs)
    true
    (src.Explore.runs <= por.Explore.runs)

let test_truncation_not_exhausted () =
  (* A correct lock under a tiny run budget: the search must report the
     truncation (not claim exhaustion) and stop scheduling work at once. *)
  let outcome = explore_lock ~max_runs:3 ~make:Tas_lock.make () in
  check ci "runs capped at the budget" 3 outcome.Explore.runs;
  check cb "not exhausted" false outcome.Explore.exhausted;
  check cb "no violation" true (outcome.Explore.violation = None)

(* --- replay faithfulness ------------------------------------------- *)

(* Two processes, two scheduling points each: position 0 branches two
   ways, and the rendered history tells the schedules apart. *)
let replay_two decisions =
  let arena =
    Engine.arena ~n:2 ~model:Memory.CC
      ~setup:(fun _ -> ())
      ~body:(fun () ~pid:_ -> Api.note (Event.Seg Event.Req_begin))
  in
  let res, diverged =
    Explore.replay ~record:true ~arena ~decisions:(Array.of_list decisions) ~crash:Crash.none ()
  in
  (Fmt.str "%a" Fmt.(list Event.pp) res.Engine.events, diverged)

let test_trace_degree_mismatch () =
  let hist5, diverged = replay_two [ 5 ] in
  check cb "out-of-range decision flags a mismatch" true (diverged <> None);
  let hist1, diverged = replay_two [ 1 ] in
  check cb "in-range decision leaves the flag clear" true (diverged = None);
  check Alcotest.string "pick still deterministic (5 mod 2 -> second of sorted)" hist1 hist5;
  check cb "the second branch is not the first" true (hist1 <> fst (replay_two [ 0 ]));
  check cb "choice = degree is not a branch" true (snd (replay_two [ 2 ]) <> None);
  check cb "a negative choice is not a branch" true (snd (replay_two [ -1 ]) <> None)

let test_replay_reports_divergence () =
  match replay_two [ 5 ] with
  | _, Some d ->
      check (Alcotest.list ci) "reports position 0, choice 5, degree 2" [ 0; 5; 2 ]
        [ d.Explore.position; d.Explore.choice; d.Explore.degree ]
  | _, None -> Alcotest.fail "divergent replay reported no divergence"

(* --- WR-Lock FAS gap: parallel determinism ------------------------- *)

(* A 3-process scenario around the WR-Lock's unsafe FAS window whose
   mutual-exclusion violation the bounded explorer can actually reach:
   p1 parks *inside* its critical section on a gate cell that only p0
   (a non-competing process) sets, and p2 crashes right after its tail
   FAS — in the gap before the predecessor is persisted.  Delaying p0
   lets p2's recovery relinquish the orphaned queue node and re-enter
   past the still-parked p1: two processes in the CS off one unsafe
   crash.  The default schedule (p0 first) is clean, so finding the
   witness takes real search, yet the witness lies on the DFS spine. *)
let wr_gap_setup ctx =
  let gate = Memory.alloc (Engine.Ctx.memory ctx) ~name:"gate" 0 in
  (Wr_lock.make ctx, gate)

let wr_gap_body (lock, gate) ~pid =
  if pid = 0 then begin
    for _ = 1 to 3 do
      Api.yield ()
    done;
    Api.write gate 1
  end
  else begin
    let cs ~pid = if pid = 1 then Api.spin_until gate (Api.Eq 1) in
    Harness.standard_body ~cs ~lock ~requests:1 pid
  end

let wr_gap_crash () = Crash.on_kind ~pid:2 ~kind:Api.Fas ~occurrence:0 Crash.After

let wr_gap_check res = if res.Engine.cs_max > 1 then Some "ME violation" else None

let wr_gap_replay trace =
  let res, diverged =
    Explore.replay ~record:true ~max_steps:4_000
      ~arena:(Engine.arena ~n:3 ~model:Memory.CC ~setup:wr_gap_setup ~body:wr_gap_body)
      ~decisions:(Array.of_list trace) ~crash:(wr_gap_crash ()) ()
  in
  (res, diverged <> None)

let explore_wr_gap ~por ~max_runs =
  Explore.explore ~por ~max_runs ~max_steps:4_000 ~n:3 ~model:Memory.CC ~crash:wr_gap_crash
    ~setup:wr_gap_setup ~body:wr_gap_body ~check:wr_gap_check ()

let test_wr_gap_sequential_finds_violation () =
  let outcome =
    Explore.explore ~max_runs:20_000 ~max_steps:4_000 ~n:3 ~model:Memory.CC ~crash:wr_gap_crash
      ~setup:wr_gap_setup ~body:wr_gap_body ~check:wr_gap_check ()
  in
  match outcome.Explore.violation with
  | None -> Alcotest.failf "missed the FAS-gap violation (%d runs)" outcome.Explore.runs
  | Some (_, trace) ->
      (* Regression for the shrink-faithfulness fix: the reported witness
         must replay without any degree mismatch and still violate. *)
      let res, mismatch = wr_gap_replay trace in
      check cb "witness replays faithfully" false mismatch;
      check cb "witness still violates ME" true (res.Engine.cs_max > 1);
      History_oracle.agree "wr-gap witness" res res.Engine.events

(* --- sleep-set POR equivalence ------------------------------------- *)

(* The reduction must be invisible in the verdict: same [exhausted], same
   first violation (message and shrunk witness), never more runs.  The
   fixed subjects cover the three regimes the tentpole names: a clean
   exhaustive tree (splitter), a WR FAS-gap violation at n=3, and the
   composed SA stack at level 0. *)

let equal_outcomes name (plain : Explore.outcome) (por : Explore.outcome) =
  check cb (name ^ ": identical exhausted") true (por.Explore.exhausted = plain.Explore.exhausted);
  check cb
    (name ^ ": identical violation (message and shrunk witness)")
    true
    (por.Explore.violation = plain.Explore.violation);
  check cb
    (Printf.sprintf "%s: por runs <= plain runs (%d <= %d)" name por.Explore.runs
       plain.Explore.runs)
    true
    (por.Explore.runs <= plain.Explore.runs)

let splitter_setup ctx = Splitter.create ctx

let splitter_body sp ~pid =
  Api.note (Event.Seg Event.Req_begin);
  (if Splitter.try_fast sp ~pid then begin
     Api.note (Event.Seg Event.Cs_begin);
     Api.yield ();
     Api.note (Event.Seg Event.Cs_end);
     Splitter.release sp ~pid
   end);
  Api.note (Event.Seg Event.Req_done)

let me_or_deadlock res =
  if res.Engine.cs_max > 1 then Some "ME violation"
  else if res.Engine.deadlocked then Some "deadlock"
  else None

let explore_splitter ~por ~crash () =
  Explore.explore ~por ~max_runs:200_000 ~max_steps:4_000 ~n:2 ~model:Memory.CC ~crash
    ~setup:splitter_setup ~body:splitter_body ~check:me_or_deadlock ()

let test_por_splitter_equivalence () =
  let no_crash () = Crash.none in
  let plain = explore_splitter ~por:`Off ~crash:no_crash () in
  let por = explore_splitter ~por:`Sleep ~crash:no_crash () in
  check cb "plain exhausts the splitter tree" true plain.Explore.exhausted;
  check cb "no violation" true (plain.Explore.violation = None);
  equal_outcomes "splitter" plain por;
  check cb
    (Printf.sprintf "at least 2x fewer runs (%d vs %d)" por.Explore.runs plain.Explore.runs)
    true
    (2 * por.Explore.runs <= plain.Explore.runs)

let test_por_wr_gap_equivalence () =
  let run por =
    Explore.explore ~por ~max_runs:20_000 ~max_steps:4_000 ~n:3 ~model:Memory.CC
      ~crash:wr_gap_crash ~setup:wr_gap_setup ~body:wr_gap_body ~check:wr_gap_check ()
  in
  let plain = run `Off in
  let por = run `Sleep in
  check cb "plain finds the FAS-gap violation" true (plain.Explore.violation <> None);
  equal_outcomes "wr-gap" plain por

(* SA stack at level 0 around the same FAS gap, now inside the composed
   lock's WR filter: p2 crashes right after the filter's tail FAS while p1
   parks in the application CS (holding the filter) until p0 opens the
   gate.  The recovery path relinquishes the orphaned node and re-enters
   the filter past the still-parked p1 — a weak-ME overlap of the filter
   that the surrounding splitter/arbitrator absorbs, so the check trips on
   the filter's occupancy, not on the application CS. *)
let sa0_setup ctx =
  let gate = Memory.alloc (Engine.Ctx.memory ctx) ~name:"gate" 0 in
  let sa =
    Sa_lock.create ~name:"sa0" ~level:0 ~core:(Bakery.make_named ~name:"sa0.core" ctx) ctx
  in
  (Sa_lock.lock sa, gate)

let sa0_body (lock, gate) ~pid =
  if pid = 0 then begin
    for _ = 1 to 3 do
      Api.yield ()
    done;
    Api.write gate 1
  end
  else begin
    let cs ~pid = if pid = 1 then Api.spin_until gate (Api.Eq 1) in
    Harness.standard_body ~cs ~lock ~requests:1 pid
  end

let sa0_crash () = Crash.on_kind ~pid:2 ~kind:Api.Fas ~occurrence:0 Crash.After

let sa0_check res =
  if res.Engine.cs_max > 1 then Some "ME violation"
  else if
    Array.exists
      (fun (l : Engine.lock_stats) ->
        l.Engine.lock_name = "sa0.filter" && l.Engine.max_occupancy > 1)
      res.Engine.locks
  then Some "filter overlap"
  else None

let test_por_sa0_equivalence () =
  let run por =
    Explore.explore ~por ~max_runs:20_000 ~max_steps:6_000 ~n:3 ~model:Memory.CC ~crash:sa0_crash
      ~setup:sa0_setup ~body:sa0_body ~check:sa0_check ()
  in
  let plain = run `Off in
  let por = run `Sleep in
  (match plain.Explore.violation with
  | Some ("filter overlap", _) -> ()
  | Some (msg, _) -> Alcotest.failf "unexpected violation %S" msg
  | None -> Alcotest.failf "missed the filter overlap (%d runs)" plain.Explore.runs);
  equal_outcomes "sa0" plain por

let test_por_exhausts_wr_tree () =
  (* The WR ME tree at n=2 is far beyond plain enumeration (measured at
     > 40M interleavings); POR exhausts it outright.  Giving the unpruned
     search a budget of several times the POR count and watching it fail
     to finish turns the reduction factor into a proven lower bound. *)
  let run ~por ~max_runs =
    Explore.explore ~por ~max_runs ~max_steps:4_000 ~n:2 ~model:Memory.CC
      ~crash:(fun () -> Crash.none)
      ~setup:Wr_lock.make
      ~body:(fun lock ~pid -> Harness.standard_body ~lock ~requests:1 pid)
      ~check:wr_gap_check ()
  in
  let por = run ~por:`Sleep ~max_runs:100_000 in
  check cb "por exhausts wr n=2" true por.Explore.exhausted;
  check cb "no violation" true (por.Explore.violation = None);
  let plain = run ~por:`Off ~max_runs:(4 * por.Explore.runs) in
  check cb "plain exceeds 4x the por count without exhausting" false plain.Explore.exhausted;
  check cb "plain found no violation either" true (plain.Explore.violation = None)

let test_por_differential_sweep () =
  (* Seeded sweep over random schedule-robust crash plans on the splitter
     subject: whatever the plan does to the tree, plain and POR must agree
     on the verdict, and POR must never run more schedules. *)
  let rng = Random.State.make [| 0x9053; 41 |] in
  for case = 1 to 12 do
    let pid = Random.State.int rng 2 in
    let nth = Random.State.int rng 8 in
    let point = if Random.State.bool rng then Crash.Before else Crash.After in
    let crash () = Crash.at_op ~pid ~nth point in
    let name =
      Printf.sprintf "case %d (pid %d, op %d, %s)" case pid nth
        (match point with Crash.Before -> "before" | Crash.After -> "after")
    in
    let plain = explore_splitter ~por:`Off ~crash () in
    let por = explore_splitter ~por:`Sleep ~crash () in
    equal_outcomes name plain por
  done

(* --- source-set DPOR: differential battery -------------------------- *)

(* Satellite battery for the three-tier explorer: every case runs `Off,
   `Sleep and `Source over the same subject and asserts the identical
   verdict — same [exhausted], same [violation] including the shrunk
   witness — with monotonically non-increasing run counts
   (off >= sleep >= source).  Subjects span the four families (wr / sa /
   bakery / splitter), robust crash plans, seeded violations and
   truncating budgets. *)

type dpor_case = {
  dname : string;
  drun : por:[ `Off | `Sleep | `Source ] -> Explore.outcome;
  dmono : bool;
      (* assert sleep >= source runs: holds on crash-free subjects; under a
         crash plan a race reversal can name a crashed pid, and the
         resulting demand-all fallback explores with weaker sleep sets
         than `Sleep's strict left-to-right order — sound, sometimes
         larger. *)
}

let splitter_battery ~crash () ~por = explore_splitter ~por ~crash ()

let splitter_trunc ~max_runs ~por =
  Explore.explore ~por ~max_runs ~max_steps:4_000 ~n:2 ~model:Memory.CC
    ~crash:(fun () -> Crash.none)
    ~setup:splitter_setup ~body:splitter_body ~check:me_or_deadlock ()

let lock_battery ~make ~body ~max_runs ~max_steps ~por =
  Explore.explore ~por ~max_runs ~max_steps ~n:2 ~model:Memory.CC
    ~crash:(fun () -> Crash.none)
    ~setup:make ~body ~check:me_or_deadlock ()

let sa0_battery ~max_runs ~por =
  Explore.explore ~por ~max_runs ~max_steps:6_000 ~n:3 ~model:Memory.CC ~crash:sa0_crash
    ~setup:sa0_setup ~body:sa0_body ~check:sa0_check ()

let sa_me_make = lazy (Rme.Spec.find_exn "sa-jjj").Rme.Spec.make

let standard_one lock ~pid = Harness.standard_body ~lock ~requests:1 pid

let dpor_battery_cases =
  (* Seeded robust crash plans, same generator family as the por sweep. *)
  let rng = Random.State.make [| 0x50dc; 7 |] in
  let seeded_crash () =
    let pid = Random.State.int rng 2 in
    let nth = Random.State.int rng 8 in
    let point = if Random.State.bool rng then Crash.Before else Crash.After in
    ( Printf.sprintf "pid %d op %d %s" pid nth
        (match point with Crash.Before -> "before" | Crash.After -> "after"),
      fun () -> Crash.at_op ~pid ~nth point )
  in
  let crash_cases =
    List.init 4 (fun i ->
        let desc, crash = seeded_crash () in
        {
          dname = Printf.sprintf "splitter crash #%d (%s)" (i + 1) desc;
          drun = splitter_battery ~crash ();
          dmono = false;
        })
  in
  [
    {
      dname = "splitter clean exhaustive";
      drun = splitter_battery ~crash:(fun () -> Crash.none) ();
      dmono = true;
    };
  ]
  @ crash_cases
  @ [
      {
        dname = "splitter clean truncated at 20";
        drun = splitter_trunc ~max_runs:20;
        dmono = true;
      };
      {
        dname = "racy mutex seeded violation";
        drun = lock_battery ~make:broken_mutex ~body:tiny_body ~max_runs:50_000 ~max_steps:20_000;
        dmono = true;
      };
      {
        dname = "wr FAS-gap violation (n=3, robust crash)";
        drun = explore_wr_gap ~max_runs:20_000;
        dmono = false;
      };
      {
        dname = "sa level-0 filter overlap (n=3, robust crash)";
        drun = sa0_battery ~max_runs:20_000;
        dmono = false;
      };
      {
        dname = "wr ME n=2 truncated at 300";
        drun = lock_battery ~make:Wr_lock.make ~body:standard_one ~max_runs:300 ~max_steps:4_000;
        dmono = true;
      };
      {
        dname = "sa ME n=2 truncated at 1000";
        drun =
          (fun ~por ->
            lock_battery ~make:(Lazy.force sa_me_make) ~body:standard_one ~max_runs:1_000
              ~max_steps:20_000 ~por);
        dmono = true;
      };
      {
        dname = "bakery truncated at 200";
        drun = lock_battery ~make:Bakery.make ~body:tiny_body ~max_runs:200 ~max_steps:4_000;
        dmono = true;
      };
      {
        dname = "arbitrator truncated at 200";
        drun =
          lock_battery
            ~make:(fun ctx -> Arbitrator.as_two_process_lock (Arbitrator.create ctx) ~n:2)
            ~body:tiny_body ~max_runs:200 ~max_steps:4_000;
        dmono = true;
      };
    ]

let run_dpor_case { dname; drun; dmono } =
  let off = drun ~por:`Off in
  let sleep = drun ~por:`Sleep in
  let source = drun ~por:`Source in
  check cb (dname ^ ": sleep/off identical exhausted") true
    (sleep.Explore.exhausted = off.Explore.exhausted);
  check cb (dname ^ ": source/off identical exhausted") true
    (source.Explore.exhausted = off.Explore.exhausted);
  check cb
    (dname ^ ": sleep/off identical violation (incl. shrunk witness)")
    true
    (sleep.Explore.violation = off.Explore.violation);
  (* `Source guarantees the identical answer to "does a violation exist"
     (same message) but its demand-driven order may surface a different
     witness of the same failure; shrinking usually — not always —
     re-converges them (see explore.mli). *)
  (match (off.Explore.violation, source.Explore.violation) with
  | None, None -> ()
  | Some (m, _), Some (m', _) ->
      check cb (dname ^ ": source violation message matches off") true (m = m')
  | Some _, None | None, Some _ ->
      check cb (dname ^ ": source agrees on violation existence") true false);
  check cb
    (Printf.sprintf "%s: sleep never exceeds off (%d >= %d)" dname off.Explore.runs
       sleep.Explore.runs)
    true
    (off.Explore.runs >= sleep.Explore.runs);
  (* Run counts are monotone off >= sleep >= source on every search that
     does not stop early: a violating search stops at the first witness,
     and `Source's demand-driven exploration order can reach the (same)
     violation later than `Sleep's strict preorder. *)
  if dmono && off.Explore.violation = None then
    check cb
      (Printf.sprintf "%s: source never exceeds sleep (%d >= %d)" dname sleep.Explore.runs
         source.Explore.runs)
      true
      (sleep.Explore.runs >= source.Explore.runs)

let test_dpor_battery () = List.iter run_dpor_case dpor_battery_cases

(* --- state cache: unit + adversarial collisions ---------------------- *)

let test_statecache_unit () =
  let c = Statecache.create ~capacity:8 () in
  let k = [| 1; 2; 3 |] in
  check cb "miss on empty" true (Statecache.find c ~key:k ~slept:0 = None);
  Statecache.add c ~key:k ~slept:0b01 ~summary:"s";
  (* Godefroid subset rule: a hit is only sound when the stored sleep mask
     is a subset of the current one. *)
  check cb "hit when stored mask is a subset" true
    (Statecache.find c ~key:k ~slept:0b11 = Some "s");
  check cb "hit on the exact mask" true (Statecache.find c ~key:k ~slept:0b01 = Some "s");
  check cb "no hit when the stored mask exceeds" true
    (Statecache.find c ~key:k ~slept:0b10 = None);
  check cb "keys compared structurally" true
    (Statecache.find c ~key:[| 1; 2; 4 |] ~slept:0b11 = None);
  check ci "hits counted" 2 (Statecache.hits c);
  check cb "misses counted" true (Statecache.misses c >= 3);
  (* Direct-mapped eviction: a colliding hash overwrites and counts. *)
  let e = Statecache.create ~hash:(fun _ -> 0) ~capacity:2 () in
  Statecache.add e ~key:[| 1 |] ~slept:0 ~summary:"a";
  check ci "first add evicts nothing" 0 (Statecache.evictions e);
  Statecache.add e ~key:[| 2 |] ~slept:0 ~summary:"b";
  check ci "colliding add evicts" 1 (Statecache.evictions e);
  Statecache.add e ~key:[| 2 |] ~slept:1 ~summary:"b'";
  check ci "same-key overwrite is not an eviction" 1 (Statecache.evictions e);
  check cb "overwrite visible" true (Statecache.find e ~key:[| 2 |] ~slept:1 = Some "b'")

let test_statecache_adversarial () =
  (* A deliberately hostile cache — one effective slot via a constant hash
     — must only cost pruning power, never change the verdict.  Compare a
     clean exhaustive Source search with caching off, with the default
     cache, and with the tiny colliding cache. *)
  let run ?statecache ?cache_capacity () =
    Explore.explore ?statecache ?cache_capacity ~por:`Source ~max_runs:200_000 ~max_steps:4_000
      ~n:2 ~model:Memory.CC
      ~crash:(fun () -> Crash.none)
      ~setup:splitter_setup ~body:splitter_body ~check:me_or_deadlock ()
  in
  let uncached = run ~cache_capacity:0 () in
  let default = run () in
  let tiny = Statecache.create ~hash:(fun _ -> 0) ~capacity:4 () in
  let collided = run ~statecache:tiny () in
  check cb "uncached exhausts" true uncached.Explore.exhausted;
  check cb "default-cache verdict identical" true
    (default.Explore.exhausted = uncached.Explore.exhausted
    && default.Explore.violation = uncached.Explore.violation);
  check cb "collided verdict identical" true
    (collided.Explore.exhausted = uncached.Explore.exhausted
    && collided.Explore.violation = uncached.Explore.violation);
  check cb
    (Printf.sprintf "collisions only lose pruning (%d <= %d <= %d)" default.Explore.runs
       collided.Explore.runs uncached.Explore.runs)
    true
    (default.Explore.runs <= collided.Explore.runs
    && collided.Explore.runs <= uncached.Explore.runs);
  (* Pin the eviction counter: with one effective slot every add over a
     different key evicts, so the counter must sit strictly between zero
     (cache silently unused) and the miss count (each eviction follows a
     missed lookup on a fresh key).  Hits stay at zero here — each fresh
     state evicts the previous one before the search can ever revisit it,
     which is exactly the worst case this test exists to exercise. *)
  check cb
    (Printf.sprintf "forced collisions evict (evictions=%d, hits=%d, misses=%d)"
       (Statecache.evictions tiny) (Statecache.hits tiny) (Statecache.misses tiny))
    true
    (Statecache.evictions tiny > 0
    && Statecache.evictions tiny <= Statecache.misses tiny)

(* --- source-set regression pins -------------------------------------- *)

(* Exact run counts per POR tier on the subjects behind the explorer's
   reduction claims.  Every search here is deterministic, so a moved count
   means the reduction or the engine's scheduling points changed: measure
   again and update the pin on purpose.  The budgets sit well above the
   pinned counts, so exhaustion is each search's own verdict; the one
   exception is the plain WR search, which must still be running at its
   budget. *)

let pin name ~runs ~exhausted (o : Explore.outcome) =
  check ci (name ^ ": runs") runs o.Explore.runs;
  check cb (name ^ ": exhausted") exhausted o.Explore.exhausted;
  check cb (name ^ ": clean") true (o.Explore.violation = None)

let test_source_pins_splitter () =
  let run por = explore_splitter ~por ~crash:(fun () -> Crash.none) () in
  pin "splitter-me-n2 off" ~runs:3_552 ~exhausted:true (run `Off);
  pin "splitter-me-n2 sleep" ~runs:39 ~exhausted:true (run `Sleep);
  pin "splitter-me-n2 source" ~runs:34 ~exhausted:true (run `Source)

let test_source_pins_sa_wr () =
  let wr = lock_battery ~make:Wr_lock.make ~body:standard_one ~max_steps:4_000 in
  pin "wr-me-n2 off" ~runs:10_000 ~exhausted:false (wr ~por:`Off ~max_runs:10_000);
  pin "wr-me-n2 sleep" ~runs:2_097 ~exhausted:true (wr ~por:`Sleep ~max_runs:200_000);
  pin "wr-me-n2 source" ~runs:2_037 ~exhausted:true (wr ~por:`Source ~max_runs:200_000);
  let sa =
    lock_battery ~make:(Lazy.force sa_me_make) ~body:standard_one ~max_steps:20_000
      ~max_runs:200_000
  in
  pin "sa-me-n2 sleep" ~runs:31_290 ~exhausted:true (sa ~por:`Sleep);
  pin "sa-me-n2 source" ~runs:18_875 ~exhausted:true (sa ~por:`Source)

let test_source_pins_wr_gap () =
  (* Every tier stops at the same first violation after the same number of
     runs.  That off and sleep also share the shrunk witness is checked by
     "wr FAS-gap: plain/por equivalence"; `Source guarantees the message
     only. *)
  let run por = explore_wr_gap ~por ~max_runs:200_000 in
  List.iter
    (fun (tier, (o : Explore.outcome)) ->
      check ci ("wr-gap-me-n3 " ^ tier ^ ": runs") 83 o.Explore.runs;
      check cb ("wr-gap-me-n3 " ^ tier ^ ": not exhausted") false o.Explore.exhausted;
      check Alcotest.(option string)
        ("wr-gap-me-n3 " ^ tier ^ ": violation")
        (Some "ME violation")
        (Option.map fst o.Explore.violation))
    [ ("off", run `Off); ("sleep", run `Sleep); ("source", run `Source) ]

(* SA stack ME at n=3: beyond both the plain and the sleep-set search,
   exhausted only by source-set DPOR with state caching.  The arrival
   order is handoff-chained (each process may start its request once its
   predecessor reaches Cs_end), so the explored concurrency is the
   acquire-vs-release handoff race at every link of the n=3 structure;
   the unconstrained 3-way tree is beyond any tier (measured > 5M
   classes).  Mutual exclusion is checked across all three processes. *)
let test_source_pins_sa_n3 () =
  let make = Lazy.force sa_me_make in
  let source =
    Explore.explore ~por:`Source ~max_runs:400_000 ~max_steps:20_000 ~shrink_violations:false
      ~n:3 ~model:Memory.CC
      ~crash:(fun () -> Crash.none)
      ~setup:(fun ctx ->
        let gate = Memory.alloc (Engine.Ctx.memory ctx) ~name:"gate" 0 in
        (make ctx, gate))
      ~body:(fun (lock, gate) ~pid ->
        if Api.completed_requests () < 1 then begin
          if pid > 0 then Api.spin_until gate (Api.Eq pid);
          Api.note (Event.Seg Event.Req_begin);
          lock.Lock.acquire ~pid;
          Api.note (Event.Seg Event.Cs_begin);
          Api.note (Event.Seg Event.Cs_end);
          Api.write gate (pid + 1);
          lock.Lock.release ~pid;
          Api.note (Event.Seg Event.Req_done)
        end)
      ~check:me_or_deadlock ()
  in
  pin "sa-me-n3 source" ~runs:325_345 ~exhausted:true source

let () =
  Alcotest.run "explore"
    [
      ( "explorer",
        [
          Alcotest.test_case "finds seeded race" `Quick test_finds_seeded_race;
          Alcotest.test_case "passes correct locks" `Quick test_passes_correct_locks;
          Alcotest.test_case "finds mcs wedge" `Quick test_finds_mcs_wedge_under_crash;
          Alcotest.test_case "exhaustive small program" `Quick test_exhaustive_small_program;
          Alcotest.test_case "truncation is not exhaustion" `Quick test_truncation_not_exhausted;
        ] );
      ( "trace faithfulness",
        [
          Alcotest.test_case "degree mismatch flag" `Quick test_trace_degree_mismatch;
          Alcotest.test_case "replay reports divergence" `Quick test_replay_reports_divergence;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "wr FAS-gap: sequential witness" `Quick
            test_wr_gap_sequential_finds_violation;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "unit" `Quick test_shrink_unit;
          Alcotest.test_case "non-reproducing input" `Quick test_shrink_keeps_nonreproducing_input;
        ] );
      ( "dpor battery",
        [ Alcotest.test_case "three-tier differential battery" `Quick test_dpor_battery ] );
      ( "statecache",
        [
          Alcotest.test_case "unit: subset rule and eviction" `Quick test_statecache_unit;
          Alcotest.test_case "adversarial collisions" `Quick test_statecache_adversarial;
        ] );
      ( "source pins",
        [
          Alcotest.test_case "splitter-me-n2 exact counts" `Quick test_source_pins_splitter;
          Alcotest.test_case "sa/wr n=2 exact counts" `Quick test_source_pins_sa_wr;
          Alcotest.test_case "wr-gap-me-n3 identical first violation" `Quick
            test_source_pins_wr_gap;
          Alcotest.test_case "sa-me-n3 handoff-chained exhausts" `Slow test_source_pins_sa_n3;
        ] );
      ( "por",
        [
          Alcotest.test_case "splitter: plain/por equivalence" `Quick
            test_por_splitter_equivalence;
          Alcotest.test_case "wr FAS-gap: plain/por equivalence" `Quick
            test_por_wr_gap_equivalence;
          Alcotest.test_case "sa level-0: plain/por equivalence" `Quick test_por_sa0_equivalence;
          Alcotest.test_case "wr n=2: por exhausts, plain cannot" `Quick
            test_por_exhausts_wr_tree;
          Alcotest.test_case "differential crash-plan sweep" `Quick test_por_differential_sweep;
        ] );
    ]
