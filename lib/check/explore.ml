open Rme_sim

type outcome = { runs : int; exhausted : bool; violation : (string * int list) option }

let pp_outcome ppf o =
  Fmt.pf ppf "runs=%d exhausted=%b%a" o.runs o.exhausted
    (Fmt.option (fun ppf (msg, tr) ->
         Fmt.pf ppf " VIOLATION %s at %a" msg Fmt.(Dump.list int) tr))
    o.violation

(* Effort counters, reported via the [stats] callback rather than inside
   [outcome]: the outcome is the search's verdict, compared whole-record
   across POR tiers and pinned in tests, while these totals also count
   probes and shrink replays. *)
type search_stats = {
  engine_runs : int;
  engine_steps : int;
  cache_hits : int;
  cache_misses : int;
  cache_evictions : int;
}

let pp_search_stats ppf s =
  Fmt.pf ppf "engine runs=%d steps=%d; statecache hits=%d misses=%d evictions=%d" s.engine_runs
    s.engine_steps s.cache_hits s.cache_misses s.cache_evictions

(* Greedy minimisation of a violating decision vector: zero out decisions
   and truncate, keeping every change that still reproduces a violation.
   Zero is the canonical "lowest-pid" choice, so a minimised trace reads as
   "follow the default schedule except at these points". *)
let shrink ~reproduces trace =
  let still_fails t = reproduces t in
  (* Drop trailing zeros (implied by the default path). *)
  let rec rstrip = function 0 :: rest -> rstrip rest | t -> t in
  let canon t = List.rev (rstrip (List.rev t)) in
  let zero_pass t =
    let arr = Array.of_list t in
    let changed = ref false in
    for i = Array.length arr - 1 downto 0 do
      if arr.(i) <> 0 then begin
        let old = arr.(i) in
        arr.(i) <- 0;
        if still_fails (canon (Array.to_list arr)) then changed := true else arr.(i) <- old
      end
    done;
    (canon (Array.to_list arr), !changed)
  in
  let rec fix t =
    let t', changed = zero_pass t in
    if changed then fix t' else t'
  in
  let t = canon trace in
  if still_fails t then fix t else trace

(* Everything one run needs, bundled so the search and the shrinker replay
   schedules identically.  [por] enables footprint collection for the
   sleep-set reduction; [crashy] marks the crash plan's possible victims
   (see Crash.por_class); [arena] is the subject, constructed once, that
   every run of the search, shrink replays included, rewinds and runs
   in. *)
type driver = {
  max_steps : int;
  record : bool;
  n : int;
  crash : unit -> Crash.t;
  abort : unit -> Abort.t;
  check : Engine.result -> string option;
  por : bool;
  crashy : int -> bool;
  tally : Engine.result -> unit;
      (* fired once per engine execution (probes and shrink replays
         included) — feeds the [stats] callback's effort counters *)
  arena : Engine.arena;
}

(* Decide which reduction tier can actually run.  Both reduced tiers need
   (a) a schedule-robust crash plan — otherwise commuting two independent
   steps can move where a crash fires — and (b) no event recording:
   [check]s that read [result.events] or [result.monitors] can observe the
   order of independent steps, which the reduction deliberately does not
   preserve.  Aggregate statistics (counts, maxima, per-passage RMRs) are
   permutation-stable by the footprint oracle's construction.  (c) The reduced search keeps its
   per-position sibling sets and sleep masks in one int, so it cannot name
   choices or pids past 61.  When any condition fails the requested tier
   downgrades to `Off. *)
let por_setup ~por ~record ~n ~crash ~abort =
  match por with
  | `Off -> (`Off, fun _ -> false)
  | (`Sleep | `Source) as tier -> (
      match Plan.union (Crash.por_class (crash ())) (Abort.por_class (abort ())) with
      | Plan.Robust victims when (not record) && n <= 62 -> (tier, fun pid -> List.mem pid victims)
      | _ -> (`Off, fun _ -> false))

(* Run one node from the root: the schedule [decisions] names (choice 0
   past its end).  [state_key_at]/[on_state_key] pass through to the engine
   (the `Source tier's state-cache key). *)
let run_node ?state_key_at ?on_state_key d decisions =
  let rr =
    Engine.run_trace ?state_key_at ?on_state_key ~record:d.record ~max_steps:d.max_steps ~por:d.por
      ~footprint_crashy:d.crashy ~abort:(d.abort ()) ~arena:d.arena ~decisions ~crash:(d.crash ())
      ()
  in
  d.tally rr.Engine.tr_result;
  rr

type divergence = { position : int; choice : int; degree : int }

(* The first position where [decisions] names a choice outside the run's
   ready set.  Positions the run never reached are not checked: past its
   end a decision vector names nothing. *)
let divergence (rr : Engine.trun) decisions =
  let rec first i =
    if i >= min (Array.length decisions) rr.tr_len then None
    else
      let choice = decisions.(i) and degree = rr.tr_degrees.(i) in
      if choice < 0 || choice >= degree then Some { position = i; choice; degree }
      else first (i + 1)
  in
  first 0

let replay ?record ?max_steps ?abort ~arena ~decisions ~crash () =
  let rr = Engine.run_trace ?record ?max_steps ?abort ~arena ~decisions ~crash () in
  (rr.Engine.tr_result, divergence rr decisions)

(* A shrink candidate counts only if it reproduces the violation *and* its
   replay does not diverge: a candidate whose degrees shifted takes
   different branches than the trace it would be reported as, so a
   "minimised" witness built from it would be unfaithful.  Shrinking only
   replays single vectors, so no footprints are collected. *)
let faithful_reproduces d t =
  let decisions = Array.of_list t in
  let rr = run_node { d with por = false } decisions in
  divergence rr decisions = None && d.check rr.Engine.tr_result <> None

(* [a.(from .. upto - 1)], copied: a node keeps its own suffix of the
   arena's degrees and footprints before its first child overwrites
   them. *)
let suffix a ~from ~upto = if upto <= from then [||] else Array.sub a from (upto - from)

(* The decision stack of one search: [dec.(i)] is the choice the current
   DFS path takes at position [i], and every position past the running
   node's depth holds 0.  A frame writes its child's choice at the child's
   branching position ([push]) and clears it when the child returns
   ([pop]), so each node runs the whole stack as its decision vector: its
   own prefix, then the default schedule, which is the run its prefix alone
   names ({!Engine.run_trace} reads choice 0 past a vector's end).  No node
   copies its prefix; a reported violation copies it once ([prefix]). *)
type stack = { mutable dec : int array }

let new_stack () = { dec = Array.make 128 0 }

let push st i c =
  if i >= Array.length st.dec then begin
    let grown = Array.make (max (i + 1) (2 * Array.length st.dec)) 0 in
    Array.blit st.dec 0 grown 0 (Array.length st.dec);
    st.dec <- grown
  end;
  st.dec.(i) <- c

let pop st i = st.dec.(i) <- 0

let prefix st depth = Array.to_list (Array.sub st.dec 0 depth)

(* Plain depth-first search of the schedule tree ([`Off]), the unreduced
   reference the reduced tiers are compared against.  Each node's run
   starts at the root and returns the branching degree observed at every
   decision point; every choice [c >= 1] at every position past the
   node's own prefix spawns a child (choice 0 is the node's own spine).

   [take_run] reserves budget for one run and returns [false] once the
   budget is gone, which unwinds the whole search immediately.  Returns the
   first violation in DFS preorder, if the search reaches one. *)
let subtree d ~take_run =
  let exception Halt in
  let exception Found of string * int list in
  let st = new_stack () in
  let rec go depth =
    if not (take_run ()) then raise Halt;
    let rr = run_node d st.dec in
    (match d.check rr.Engine.tr_result with
    | Some msg -> raise (Found (msg, prefix st depth))
    | None -> ());
    let branches = suffix rr.Engine.tr_degrees ~from:depth ~upto:rr.Engine.tr_len in
    for ix = 0 to Array.length branches - 1 do
      for c = 1 to branches.(ix) - 1 do
        push st (depth + ix) c;
        go (depth + ix + 1);
        pop st (depth + ix)
      done
    done
  in
  match go 0 with
  | () | (exception Halt) -> None
  | exception Found (msg, tr) -> Some (msg, tr)

(* ------------------------------------------------------------------ *)
(* Source-set DPOR (`Source tier)                                      *)
(* ------------------------------------------------------------------ *)

(* Shared runtime of one `Source search: the demand slots and the state
   cache.  [slots] holds, per absolute decision position of the current
   DFS path, the bitmask of sibling choices some observed race demands at
   that position ([all_mask] = every choice, used when the demanded pid is
   not runnable there or the degree exceeds the mask width).  One frame
   owns each position at a time; a frame drains and clears its own
   positions before returning, and leaves demands for positions below its
   depth to the ancestor frames that own them. *)
module Src = struct
  type summary = Footprint.t list option
  (* distinct footprints a subtree executed; [None] = overflowed the cap,
     treated as conflicting with everything *)

  (* [race] and [offs] are the race scan's storage, reused by every scan of
     the search: [offs.(j)] is position [j]'s first footprint in the
     arena's buffer. *)
  type ctx = {
    slots : int Vec.t;
    cache : summary Statecache.t option;
    race : Footprint.Race.scratch;
    mutable offs : int array;
  }

  (* Mutable summary accumulator threaded from child frames to parents. *)
  type acc = { mutable fps : Footprint.t list; mutable universal : bool }

  let all_mask = -1

  let summary_cap = 64

  let fresh_acc () = { fps = []; universal = false }

  let note acc fp =
    if not acc.universal then
      if List.memq fp acc.fps then ()
      else if List.length acc.fps >= summary_cap then begin
        acc.universal <- true;
        acc.fps <- []
      end
      else acc.fps <- fp :: acc.fps

  (* Direct recursion: a [List.iter (note acc)] would build its partial
     application on every cache hit. *)
  let rec note_all acc = function
    | [] -> ()
    | fp :: rest ->
        note acc fp;
        note_all acc rest

  let note_summary acc = function
    | None ->
        acc.universal <- true;
        acc.fps <- []
    | Some l -> note_all acc l

  let to_summary acc : summary = if acc.universal then None else Some acc.fps

  let ensure ctx len =
    while Vec.length ctx.slots < len do
      Vec.push ctx.slots 0
    done

  (* [choice]: the demanded pid's index in the ready set, -1 when it is not
     runnable there. *)
  let demand ctx ~pos ~deg ~choice =
    let cur = Vec.get ctx.slots pos in
    if cur <> all_mask then
      Vec.set ctx.slots pos (if choice >= 0 && deg <= 62 then cur lor (1 lsl choice) else all_mask)

  (* Where each position's footprints start in the arena's flat buffer. *)
  let offsets ctx ~degrees ~len =
    if Array.length ctx.offs < len then
      ctx.offs <- Array.make (max len (2 * Array.length ctx.offs)) 0;
    let offs = ctx.offs in
    let o = ref 0 in
    for j = 0 to len - 1 do
      offs.(j) <- !o;
      o := !o + degrees.(j)
    done;
    offs

  (* Scan a completed run for reversible races and deposit the resulting
     demands.  [decisions] is the decision stack (0 past the node's depth),
     [degrees] and [fps] the run's degrees and flat footprints, read in
     place in the arena. *)
  let scan ctx ~n ~decisions ~len ~degrees ~fps =
    ensure ctx len;
    let offs = offsets ctx ~degrees ~len in
    let ndec = Array.length decisions in
    let choice j = if j < ndec then decisions.(j) else 0 in
    let executed j = fps.(offs.(j) + choice j) in
    Footprint.Race.scan ctx.race ~n ~len ~executed
      ~degree:(fun j -> degrees.(j))
      ~emit:(fun ~pos ~pid ->
        let deg = degrees.(pos) in
        let c = ref (-1) in
        for i = deg - 1 downto 0 do
          if Footprint.pid fps.(offs.(pos) + i) = pid then c := i
        done;
        demand ctx ~pos ~deg ~choice:!c)

  (* Does a footprint of another process in [l] conflict with [fk]?  Top
     level, so a cache hit builds no closure per prefix position. *)
  let rec conflicts fk = function
    | [] -> false
    | f :: rest ->
        (Footprint.pid f <> Footprint.pid fk && not (Footprint.independent f fk))
        || conflicts fk rest

  (* Conservative demands a pruned (cache-hit) subtree owes the current
     prefix, [decisions.(0 .. depth - 1)].  The stored exploration raised
     its cross-prefix race demands against *its* path, not ours, so
     re-raise them here from the summary: demand every sibling at every
     branching prefix position whose executed step conflicts with any
     footprint the subtree ran.  The prefix is read in place in the arena,
     walking its offsets. *)
  let demand_prefix ctx ~decisions ~depth ~degrees ~fps (s : summary) =
    ensure ctx depth;
    let off = ref 0 in
    for k = 0 to depth - 1 do
      let deg = degrees.(k) in
      if deg > 1 then begin
        let fk = fps.(!off + decisions.(k)) in
        let conflict = match s with None -> true | Some l -> conflicts fk l in
        if conflict then demand ctx ~pos:k ~deg ~choice:(-1)
      end;
      off := !off + deg
    done

  (* Is a footprint of [pid] among the sleepers [l]? *)
  let rec asleep pid = function [] -> false | s :: rest -> Footprint.pid s = pid || asleep pid rest

  (* [l] filtered to the footprints independent of [step], then [tail]. *)
  let rec keep_independent step l tail =
    match l with
    | [] -> tail
    | s :: rest ->
        let rest' = keep_independent step rest tail in
        if not (Footprint.independent s step) then rest'
        else if rest' == rest then l
        else s :: rest'

  (* The sleepers [inh @ expl] that stay asleep past [step], in that
     order: [List.filter] over the append, without its copy of [inh] and
     its closure, and sharing [inh] when [expl] is empty and every
     inherited sleeper stays asleep, as most do. *)
  let sleep_past step inh expl = keep_independent step inh (keep_independent step expl [])

  (* Sleep mask for the cache's subset rule; exact because [por_setup]
     keeps systems wider than 62 pids out of the reduced tiers. *)
  let mask_of_sleep inh = List.fold_left (fun m f -> m lor (1 lsl Footprint.pid f)) 0 inh
end

(* Depth-first reduced search over the same node runs as [subtree], shared
   by both reduced tiers.  Each node runs its spine schedule and explores a
   sibling only when it is demanded: under [races] (`Source) when the
   node's scan of its observed footprints finds a reversible race
   ({!Footprint.Race}) that demands it, otherwise (`Sleep) always.  Race
   demands land in the shared [ctx.slots] under the position they reverse;
   since descendants of a node keep discovering races at its positions,
   every frame drains its own position range with fixpoint sweeps until no
   demand is pending.

   Sleep sets prune on top of the demands: the spine is a chain of decision
   points, and [inh0] holds the footprints of processes put to sleep by
   the ancestors.  A sibling whose pid is asleep is skipped, because every
   run below it only reorders commuting steps of a run explored since the
   pid went to sleep (and a demanded-but-sleeping pid's reversal is the
   run the sleeper stands in for).  Each visited sibling joins the sleep
   set of the later siblings and of the spine continuation — filtered at
   every hand-off by independence with the step actually taken (a
   dependent step wakes the sleeper).  A sleeping pid's pending step
   cannot change while it sleeps (only its own step could change it), so
   the stored footprint stays accurate.  With every sibling demanded the
   first sweep visits each position's siblings before the spine continues,
   in DFS preorder.

   With a [cache], a node whose state key hits it — same key, stored sleep
   mask ⊆ current — prunes its whole subtree after re-raising the stored
   summary's conservative prefix demands; a completed frame none of whose
   descendants timed out adds itself.  Without one, no subtree summary is
   kept.  Race-driven visit order is demand-driven, so when violations
   exist the reported witness may differ from [subtree]'s preorder-first
   one (the shrunk witness is compared in the differential battery
   instead); exhaustion and violation-existence always agree. *)
let subtree_source d ~races ~cache ~take_run =
  let exception Halt in
  let exception Found of string * int list in
  let ctx = { Src.slots = Vec.create (); cache; race = Footprint.Race.scratch (); offs = [||] } in
  let caching = cache <> None in
  let st = new_stack () in
  (* The state key of the node that ran last ([[||]] for none), filled by
     one [on_state_key] built for the whole search; a node reads it right
     after its own run, before any child's run replaces it. *)
  let last_key = ref [||] in
  let on_state_key k = last_key := k in
  let rec go depth inh0 (note : Src.acc) =
    if not (take_run ()) then raise Halt;
    let rr =
      if caching then begin
        last_key := [||];
        run_node d ~state_key_at:depth ~on_state_key st.dec
      end
      else run_node d st.dec
    in
    let key = !last_key in
    let res = rr.Engine.tr_result in
    (match d.check res with
    | Some msg -> raise (Found (msg, prefix st depth))
    | None -> ());
    let len = rr.Engine.tr_len in
    let m = len - depth in
    if res.Engine.timed_out then begin
      (* The run was cut mid-schedule: the permutation argument needs
         complete runs, so expand this node unpruned (children still
         reduce internally) and poison the cache adds of the whole path —
         the subtree's footprints are unknown, so no ancestor summary can
         be trusted. *)
      let branches = suffix rr.Engine.tr_degrees ~from:depth ~upto:len in
      for ix = 0 to m - 1 do
        for c = 1 to branches.(ix) - 1 do
          push st (depth + ix) c;
          ignore (go (depth + ix + 1) [] note);
          pop st (depth + ix)
        done
      done;
      (* Demands children deposited at our positions are subsumed by the
         unpruned expansion; clear them so they cannot leak upward. *)
      for i = depth to min len (Vec.length ctx.Src.slots) - 1 do
        Vec.set ctx.Src.slots i 0
      done;
      if caching then Src.note_summary note None;
      false
    end
    else begin
      let degrees = rr.Engine.tr_degrees and fps = rr.Engine.tr_footprints in
      let slept = if caching then Src.mask_of_sleep inh0 else 0 in
      let hit =
        match ctx.Src.cache with
        | Some c when Array.length key > 0 -> Statecache.find c ~key ~slept
        | Some _ | None -> None
      in
      match hit with
      | Some summary ->
          Src.demand_prefix ctx ~decisions:st.dec ~depth ~degrees ~fps summary;
          Src.note_summary note summary;
          true
      | None ->
          if races then Src.scan ctx ~n:d.n ~decisions:st.dec ~len ~degrees ~fps;
          (* This node's own degrees and footprints, [depth, len): the
             children below overwrite the arena's. *)
          let base = ref 0 in
          for k = 0 to depth - 1 do
            base := !base + degrees.(k)
          done;
          let branches = suffix degrees ~from:depth ~upto:len in
          let own = Array.fold_left ( + ) 0 branches in
          let fp = Array.sub fps !base own in
          let acc = Src.fresh_acc () in
          if caching then begin
            let o = ref 0 in
            for ix = 0 to m - 1 do
              Src.note acc fp.(!o);
              o := !o + branches.(ix)
            done
          end;
          let dem = Array.make (max m 1) (if races then 0 else Src.all_mask) in
          (* Drain demands addressed to this frame's positions out of the
             shared slots, eagerly: after the own scan and after every child
             returns.  A child's position range overlaps ours (absolute
             positions alias across paths), so a demand of ours left in the
             slots while a child runs would be consumed — and cleared — by
             the child against the wrong node. *)
          let drain () =
            for i = depth to min len (Vec.length ctx.Src.slots) - 1 do
              let v = Vec.get ctx.Src.slots i in
              if v <> 0 then begin
                dem.(i - depth) <- dem.(i - depth) lor v;
                Vec.set ctx.Src.slots i 0
              end
            done
          in
          drain ();
          let inh = Array.make (max m 1) [] in
          let expl = Array.make (max m 1) [] in
          let acted = Array.make (max m 1) 1 (* bit 0: the spine, covered by this run *) in
          if m > 0 then inh.(0) <- inh0;
          let summarizable = ref true in
          let first_sweep = ref true in
          let progress = ref true in
          while !progress do
            progress := false;
            (* [o]: position [depth + ix]'s first footprint in [fp]. *)
            let o = ref 0 in
            for ix = 0 to m - 1 do
              let deg = branches.(ix) in
              if deg > 1 then begin
                let full = if deg >= 62 then Src.all_mask else (1 lsl deg) - 1 in
                let pending = dem.(ix) land full land lnot acted.(ix) in
                if pending <> 0 then
                  for c = 1 to deg - 1 do
                    if pending land (1 lsl c) <> 0 then begin
                      acted.(ix) <- acted.(ix) lor (1 lsl c);
                      let fpc = fp.(!o + c) in
                      let pidc = Footprint.pid fpc in
                      if Src.asleep pidc inh.(ix) then ()
                      else begin
                        progress := true;
                        let child_sleep = Src.sleep_past fpc inh.(ix) expl.(ix) in
                        push st (depth + ix) c;
                        let ok = go (depth + ix + 1) child_sleep acc in
                        pop st (depth + ix);
                        drain ();
                        summarizable := !summarizable && ok;
                        expl.(ix) <- fpc :: expl.(ix)
                      end
                    end
                  done
              end;
              (* Past this position, the first-sweep explored siblings (and
                 the inherited sleepers) stay asleep on the spine iff
                 independent of the step the spine actually took. *)
              if !first_sweep && ix + 1 < m then begin
                inh.(ix + 1) <- Src.sleep_past fp.(!o) inh.(ix) expl.(ix)
              end;
              o := !o + deg
            done;
            first_sweep := false
          done;
          (match ctx.Src.cache with
          | Some c when !summarizable && Array.length key > 0 ->
              Statecache.add c ~key ~slept ~summary:(Src.to_summary acc)
          | Some _ | None -> ());
          if caching then Src.note_summary note (Src.to_summary acc);
          !summarizable
    end
  in
  match go 0 [] (Src.fresh_acc ()) with
  | _ | (exception Halt) -> None
  | exception Found (msg, tr) -> Some (msg, tr)

(* [exhausted] means the search covered the whole tree (up to runs the
   sleep-set reduction proved equivalent to explored ones): no truncation
   and no violation (a violation stops the search early by design). *)
let finish d ~shrink_violations ~runs ~truncated violation =
  let violation =
    match violation with
    | Some (msg, trace) when shrink_violations ->
        Some (msg, shrink ~reproduces:(faithful_reproduces d) trace)
    | v -> v
  in
  { runs; exhausted = (violation = None) && not truncated; violation }

let explore ?(max_runs = 100_000) ?(max_steps = 20_000) ?(shrink_violations = true)
    ?(record = false) ?(por = `Sleep) ?statecache ?(cache_capacity = 65_536)
    ?(abort = fun () -> Abort.none) ?stats ~n ~model ~crash ~setup ~body ~check () =
  let tier, crashy = por_setup ~por ~record ~n ~crash ~abort in
  let runs_total = ref 0 in
  let steps_total = ref 0 in
  let tally =
    match stats with
    | None -> fun (_ : Engine.result) -> ()
    | Some _ ->
        fun (r : Engine.result) ->
          incr runs_total;
          steps_total := !steps_total + r.Engine.steps
  in
  let d =
    {
      max_steps;
      record;
      n;
      crash;
      abort;
      check;
      por = tier <> `Off;
      crashy;
      tally;
      arena = Engine.arena ~n ~model ~setup ~body;
    }
  in
  (* Hoisted so the [stats] callback can read the counters after the
     search, whichever branch ran. *)
  let cache =
    match tier with
    | `Source when statecache <> None -> statecache
    | `Source when cache_capacity > 0 -> Some (Statecache.create ~capacity:cache_capacity ())
    | `Off | `Sleep | `Source -> None
  in
  let runs = ref 0 in
  let truncated = ref false in
  let take_run () =
    if !runs >= max_runs then begin
      truncated := true;
      false
    end
    else begin
      incr runs;
      true
    end
  in
  let search take_run =
    match tier with
    | `Off -> subtree d ~take_run
    | `Sleep -> subtree_source d ~races:false ~cache:None ~take_run
    | `Source -> subtree_source d ~races:true ~cache ~take_run
  in
  let violation =
    match tier with
    | `Off -> search take_run
    | `Sleep | `Source ->
        (* Root probe: the very first run — the default schedule — executes
           footprint-free.  When it already violates, the whole search is
           that one run and the reduction machinery never pays its footprint
           overhead (the violation-bound case).  Otherwise the root re-runs
           with footprints inside the reduced search, without consuming
           budget a second time, so run counts match the un-probed search
           exactly. *)
        if not (take_run ()) then None
        else begin
          match d.check (run_node { d with por = false } [||]).Engine.tr_result with
          | Some msg -> Some (msg, [])
          | None ->
              let first = ref true in
              search (fun () ->
                  if !first then begin
                    first := false;
                    true
                  end
                  else take_run ())
        end
  in
  let outcome = finish d ~shrink_violations ~runs:!runs ~truncated:!truncated violation in
  (match stats with
  | None -> ()
  | Some f ->
      let cache_hits, cache_misses, cache_evictions =
        match cache with
        | Some c -> (Statecache.hits c, Statecache.misses c, Statecache.evictions c)
        | None -> (0, 0, 0)
      in
      f
        {
          engine_runs = !runs_total;
          engine_steps = !steps_total;
          cache_hits;
          cache_misses;
          cache_evictions;
        });
  outcome

let explore_parallel ?max_runs ?max_steps ?shrink_violations ?por ?domains:_ ?stats ~n ~model
    ~crash ~setup ~body ~check () =
  explore ?max_runs ?max_steps ?shrink_violations ?por ?stats ~n ~model ~crash ~setup ~body ~check
    ()
