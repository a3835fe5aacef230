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
   schedules identically.  [opts] are the search's run options, built once:
   footprints under a reduced tier, with [crashy] marking the crash plan's
   possible victims (see Crash.por_class), and the state key handed to
   [last_key]; [plain] are the same options without footprints, for the
   root probe and the shrink replays.  [arena] is the subject, constructed
   once, that every run of the search, shrink replays included, rewinds
   and runs in. *)
type driver = {
  n : int;
  crash : unit -> Crash.t;
  abort : unit -> Abort.t;
  check : Engine.result -> string option;
  opts : Engine.trace_opts;
  plain : Engine.trace_opts;
  last_key : int array ref;
      (* the state key of the run that computed one last, [[||]] for none *)
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

(* Run one node from the root under [opts] ([d.opts] or [d.plain]): the
   schedule [decisions] names (choice 0 past its end), with the state key
   taken at [key_at] (-1: none). *)
let run_node d opts ~key_at decisions =
  let rr =
    Engine.run_with opts ~state_key_at:key_at ~abort:(d.abort ()) ~arena:d.arena ~decisions
      ~crash:(d.crash ())
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
  let rr = run_node d d.plain ~key_at:(-1) decisions in
  divergence rr decisions = None && d.check rr.Engine.tr_result <> None

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

(* A stack of frame regions, one per kind of slot, kept for a whole
   search: a node copies its suffix of the arena's degrees (and
   footprints) there before its first child's run overwrites them.  A
   frame reserves [k] slots above [top], addresses them at offsets from
   the base [reserve] returns, and releases them when it returns; the
   frames it calls reserve theirs above it.  A reservation can move
   [data] to a larger array, so a frame never holds on to it: it reads
   and writes its slots through [f.%(i)], which reads [data] afresh. *)
type 'a frames = { mutable data : 'a array; mutable top : int; filler : 'a }

let ( .%() ) f i = f.data.(i)

let ( .%()<- ) f i v = f.data.(i) <- v

let frames filler = { data = Array.make 1024 filler; top = 0; filler }

let reserve f k =
  let base = f.top in
  if base + k > Array.length f.data then begin
    let grown = Array.make (max (base + k) (2 * Array.length f.data)) f.filler in
    Array.blit f.data 0 grown 0 base;
    f.data <- grown
  end;
  f.top <- base + k;
  base

let release f base = f.top <- base

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
  let branches = frames 0 in
  let rec go depth =
    if not (take_run ()) then raise Halt;
    let rr = run_node d d.opts ~key_at:(-1) st.dec in
    (match d.check rr.Engine.tr_result with
    | Some msg -> raise (Found (msg, prefix st depth))
    | None -> ());
    let m = max 0 (rr.Engine.tr_len - depth) in
    let b = reserve branches m in
    Array.blit rr.Engine.tr_degrees depth branches.data b m;
    for ix = 0 to m - 1 do
      for c = 1 to branches.%(b + ix) - 1 do
        push st (depth + ix) c;
        go (depth + ix + 1);
        pop st (depth + ix)
      done
    done;
    release branches b
  in
  match go 0 with
  | () | (exception Halt) -> None
  | exception Found (msg, tr) -> Some (msg, tr)

(* ------------------------------------------------------------------ *)
(* Source-set DPOR (`Source tier)                                      *)
(* ------------------------------------------------------------------ *)

(* Shared runtime of one `Source search: the demand slots, the state
   cache and the frame stacks.  [slots] holds, per absolute decision
   position of the current DFS path, the bitmask of sibling choices some
   observed race demands at that position ([all_mask] = every choice, used
   when the demanded pid is not runnable there or the degree exceeds the
   mask width).  One frame owns each position at a time; a frame drains and
   clears its own positions before returning, and leaves demands for
   positions below its depth to the ancestor frames that own them. *)
module Src = struct
  type summary = Footprint.t array option
  (* distinct footprints a subtree executed, in no particular order;
     [None] = overflowed the cap, treated as conflicting with everything *)

  (* [race], [offs] and [exec] are the race scan's storage, reused by every
     scan of the search: [offs.(j)] is position [j]'s first footprint in
     the arena's buffer, [exec.(j)] the footprint of the step the run took
     there.  The frame stacks hold what a cache-miss frame keeps across its
     children's runs, which overwrite the arena's buffers: on [ints], its
     positions' degrees, demand masks and acted masks; on [fps], its
     positions' footprints; on [sleeps], its inherited and explored sleep
     lists.  The summary accumulator of the frame at nesting level [l]
     holds the distinct footprints its subtree has executed so far:
     [acc_len.(l)] of them, at [acc_fps.(l * summary_cap)] on, or -1 once
     there were more than [summary_cap]. *)
  type ctx = {
    slots : int Vec.t;
    cache : summary Statecache.t option;
    race : Footprint.Race.scratch;
    mutable offs : int array;
    mutable exec : Footprint.t array;
    ints : int frames;
    fps : Footprint.t frames;
    sleeps : Footprint.t list frames;
    mutable acc_fps : Footprint.t array;
    mutable acc_len : int array;
  }

  let all_mask = -1

  let summary_cap = 64

  let create cache =
    {
      slots = Vec.create ();
      cache;
      race = Footprint.Race.scratch ();
      offs = [||];
      exec = [||];
      ints = frames 0;
      fps = frames (Footprint.local ~pid:0);
      sleeps = frames [];
      acc_fps = [||];
      acc_len = [||];
    }

  (* Empty level [l]'s accumulator, making room for it.  Levels grow one
     at a time, so the tables grow by doubling. *)
  let acc_reset ctx l =
    if l >= Array.length ctx.acc_len then begin
      let levels = max (l + 1) (2 * Array.length ctx.acc_len) in
      let fps = Array.make (levels * summary_cap) (Footprint.local ~pid:0) in
      Array.blit ctx.acc_fps 0 fps 0 (Array.length ctx.acc_fps);
      let lens = Array.make levels 0 in
      Array.blit ctx.acc_len 0 lens 0 (Array.length ctx.acc_len);
      ctx.acc_fps <- fps;
      ctx.acc_len <- lens
    end;
    ctx.acc_len.(l) <- 0

  (* Add [fp] to level [l]'s accumulator unless it is there already; one
     past [summary_cap] distinct footprints makes it universal. *)
  let note ctx l fp =
    let len = ctx.acc_len.(l) in
    if len >= 0 then begin
      let base = l * summary_cap in
      let i = ref 0 in
      while !i < len && ctx.acc_fps.(base + !i) != fp do
        incr i
      done;
      if !i = len then
        if len >= summary_cap then ctx.acc_len.(l) <- -1
        else begin
          ctx.acc_fps.(base + len) <- fp;
          ctx.acc_len.(l) <- len + 1
        end
    end

  let note_summary ctx l = function
    | None -> ctx.acc_len.(l) <- -1
    | Some a ->
        for i = 0 to Array.length a - 1 do
          note ctx l a.(i)
        done

  let to_summary ctx l : summary =
    let len = ctx.acc_len.(l) in
    if len < 0 then None else Some (Array.sub ctx.acc_fps (l * summary_cap) len)

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
    if Array.length ctx.exec < len then
      ctx.exec <- Array.make (max len (2 * Array.length ctx.exec)) (Footprint.local ~pid:0);
    let exec = ctx.exec in
    let ndec = Array.length decisions in
    for j = 0 to len - 1 do
      exec.(j) <- fps.(offs.(j) + if j < ndec then decisions.(j) else 0)
    done;
    let race = ctx.race in
    Footprint.Race.scan race ~n ~len ~executed:exec ~degrees;
    for r = 0 to Footprint.Race.races race - 1 do
      let pos = Footprint.Race.race_pos race r and pid = Footprint.Race.race_pid race r in
      let deg = degrees.(pos) in
      let c = ref (-1) in
      for i = deg - 1 downto 0 do
        if Footprint.pid fps.(offs.(pos) + i) = pid then c := i
      done;
      demand ctx ~pos ~deg ~choice:!c
    done

  (* Move the demands addressed to positions [depth, len) out of the
     shared slots into the frame's demand masks, [ints.%(dem + i - depth)]
     for position [i]. *)
  let drain ctx ~dem ~depth ~len =
    let slots = ctx.slots in
    for i = depth to min len (Vec.length slots) - 1 do
      let v = Vec.get slots i in
      if v <> 0 then begin
        ctx.ints.%(dem + i - depth) <- ctx.ints.%(dem + i - depth) lor v;
        Vec.set slots i 0
      end
    done

  (* Does a footprint of another process in [a] conflict with [fk]?  Top
     level, so a cache hit builds no closure per prefix position. *)
  let conflicts fk a =
    let i = ref 0 in
    while
      !i < Array.length a
      && (Footprint.pid a.(!i) = Footprint.pid fk || Footprint.independent a.(!i) fk)
    do
      incr i
    done;
    !i < Array.length a

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
   instead); exhaustion and violation-existence always agree.

   A node allocates none of its own bookkeeping.  A cache-miss frame of
   [m] positions copies its degrees and footprints onto the search's frame
   stacks, next to its demand, acted and sleep slots, and releases them
   when it returns; its summary accumulator is its nesting level's, reused.
   Only what outlives the frame is allocated: cache entries, summaries and
   sleep lists. *)
let subtree_source d ~races ~cache ~take_run =
  let exception Halt in
  let exception Found of string * int list in
  let ctx = Src.create cache in
  let caching = cache <> None in
  let st = new_stack () in
  (* [lvl]: the frame's nesting level, which names its accumulator;
     [note]: the level its subtree's footprints are noted at (its
     parent's). *)
  let rec go depth inh0 note lvl =
    if not (take_run ()) then raise Halt;
    (* The state key lands in [d.last_key]; read right after the run,
       before any child's run replaces it. *)
    if caching then d.last_key := [||];
    let rr = run_node d d.opts ~key_at:(if caching then depth else -1) st.dec in
    let key = !(d.last_key) in
    let res = rr.Engine.tr_result in
    (match d.check res with
    | Some msg -> raise (Found (msg, prefix st depth))
    | None -> ());
    let len = rr.Engine.tr_len in
    let m = max 0 (len - depth) in
    if res.Engine.timed_out then begin
      (* The run was cut mid-schedule: the permutation argument needs
         complete runs, so expand this node unpruned (children still
         reduce internally) and poison the cache adds of the whole path —
         the subtree's footprints are unknown, so no ancestor summary can
         be trusted. *)
      let b = reserve ctx.ints m in
      Array.blit rr.Engine.tr_degrees depth ctx.ints.data b m;
      for ix = 0 to m - 1 do
        for c = 1 to ctx.ints.%(b + ix) - 1 do
          push st (depth + ix) c;
          ignore (go (depth + ix + 1) [] note (lvl + 1));
          pop st (depth + ix)
        done
      done;
      release ctx.ints b;
      (* Demands children deposited at our positions are subsumed by the
         unpruned expansion; clear them so they cannot leak upward. *)
      for i = depth to min len (Vec.length ctx.Src.slots) - 1 do
        Vec.set ctx.Src.slots i 0
      done;
      if caching then Src.note_summary ctx note None;
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
          Src.note_summary ctx note summary;
          true
      | None ->
          if races then Src.scan ctx ~n:d.n ~decisions:st.dec ~len ~degrees ~fps;
          (* The frame: on [ints], the degrees of positions [depth, len)
             at [b], their demand masks at [dem] and acted masks at
             [acted] (bit 0: the spine, covered by this run); on [fps],
             their footprints at [fb]; on [sleeps], the inherited sleep
             lists at [inh] and the explored ones at [expl].  The children
             below overwrite the arena's degrees and footprints. *)
          let b = reserve ctx.ints (3 * m) in
          let dem = b + m and acted = b + (2 * m) in
          let ints = ctx.ints.data in
          Array.blit degrees depth ints b m;
          Array.fill ints dem m (if races then 0 else Src.all_mask);
          Array.fill ints acted m 1;
          let base = ref 0 in
          for k = 0 to depth - 1 do
            base := !base + degrees.(k)
          done;
          let own = ref 0 in
          for k = depth to len - 1 do
            own := !own + degrees.(k)
          done;
          let fb = reserve ctx.fps !own in
          Array.blit fps !base ctx.fps.data fb !own;
          let inh = reserve ctx.sleeps (2 * m) in
          let expl = inh + m in
          Array.fill ctx.sleeps.data inh (2 * m) [];
          if m > 0 then ctx.sleeps.%(inh) <- inh0;
          if caching then begin
            Src.acc_reset ctx lvl;
            let o = ref fb in
            for ix = 0 to m - 1 do
              Src.note ctx lvl ctx.fps.%(!o);
              o := !o + ctx.ints.%(b + ix)
            done
          end;
          (* Drain demands addressed to this frame's positions out of the
             shared slots, eagerly: after the own scan and after every child
             returns.  A child's position range overlaps ours (absolute
             positions alias across paths), so a demand of ours left in the
             slots while a child runs would be consumed — and cleared — by
             the child against the wrong node. *)
          Src.drain ctx ~dem ~depth ~len;
          let summarizable = ref true in
          let first_sweep = ref true in
          let progress = ref true in
          while !progress do
            progress := false;
            (* [o]: position [depth + ix]'s first footprint on [fps]. *)
            let o = ref fb in
            for ix = 0 to m - 1 do
              let deg = ctx.ints.%(b + ix) in
              if deg > 1 then begin
                let full = if deg >= 62 then Src.all_mask else (1 lsl deg) - 1 in
                let pending = ctx.ints.%(dem + ix) land full land lnot ctx.ints.%(acted + ix) in
                if pending <> 0 then
                  for c = 1 to deg - 1 do
                    if pending land (1 lsl c) <> 0 then begin
                      ctx.ints.%(acted + ix) <- ctx.ints.%(acted + ix) lor (1 lsl c);
                      let fpc = ctx.fps.%(!o + c) in
                      let pidc = Footprint.pid fpc in
                      if Src.asleep pidc ctx.sleeps.%(inh + ix) then ()
                      else begin
                        progress := true;
                        let child_sleep =
                          Src.sleep_past fpc ctx.sleeps.%(inh + ix) ctx.sleeps.%(expl + ix)
                        in
                        push st (depth + ix) c;
                        let ok = go (depth + ix + 1) child_sleep lvl (lvl + 1) in
                        pop st (depth + ix);
                        Src.drain ctx ~dem ~depth ~len;
                        summarizable := !summarizable && ok;
                        ctx.sleeps.%(expl + ix) <- fpc :: ctx.sleeps.%(expl + ix)
                      end
                    end
                  done
              end;
              (* Past this position, the first-sweep explored siblings (and
                 the inherited sleepers) stay asleep on the spine iff
                 independent of the step the spine actually took. *)
              if !first_sweep && ix + 1 < m then
                ctx.sleeps.%(inh + ix + 1) <-
                  Src.sleep_past ctx.fps.%(!o) ctx.sleeps.%(inh + ix) ctx.sleeps.%(expl + ix);
              o := !o + deg
            done;
            first_sweep := false
          done;
          release ctx.sleeps inh;
          release ctx.fps fb;
          release ctx.ints b;
          if caching then begin
            let summary = Src.to_summary ctx lvl in
            (match ctx.Src.cache with
            | Some c when !summarizable && Array.length key > 0 ->
                Statecache.add c ~key ~slept ~summary
            | Some _ | None -> ());
            Src.note_summary ctx note summary
          end;
          !summarizable
    end
  in
  if caching then Src.acc_reset ctx 0;
  match go 0 [] 0 1 with
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
  let last_key = ref [||] in
  let d =
    {
      n;
      crash;
      abort;
      check;
      opts =
        Engine.trace_opts ~record ~max_steps ~por:(tier <> `Off) ~footprint_crashy:crashy
          ~on_state_key:(fun k -> last_key := k)
          ();
      plain = Engine.trace_opts ~record ~max_steps ();
      last_key;
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
          match d.check (run_node d d.plain ~key_at:(-1) [||]).Engine.tr_result with
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
