(* The abort decision axis over the shared core in [Plan]: a positive
   decision delivers an abort signal to the victim, and the engine flags
   only processes inside some lock's entry section, so plans may fire
   blindly.  Victim selection may read the [view]; state transitions may
   not (the winding contract in abort.mli). *)

type view = {
  n : int;
  waiting : int -> int;
      (* entry age of [pid] in engine steps, -1 when not in an entry section *)
  streak : int -> int;
      (* consecutive aborts of [pid]'s current super-passage (reset on
         acquire / lost race / crash) *)
}

let blind_view ~n = { n; waiting = (fun _ -> -1); streak = (fun _ -> 0) }

type t = (unit, view) Plan.t

let label (t : t) = Lazy.force t.label

let on_op (t : t) info = match t.on_op info with None -> false | Some () -> true

let async (t : t) ~step view = t.async ~step view

let por_class (t : t) = t.por

let none = Plan.none

let at_op ~pid ~nth : t = Plan.at_op ~tag:"abort-" ~pid ~nth ()

let async_at specs : t = Plan.async_at ~tag:"abort-" specs

let all : t list -> t = Plan.all

(* The impatient-client shape: a process whose entry section has aged past
   [timeout_steps * backoff^streak] engine steps gives up — unless it has
   already aborted [retries] times this super-passage, in which case it
   turns patient and waits the acquisition out.  Stateless (all state lives
   in the engine's oracles), hence trivially wind-exact; re-signalling an
   already-flagged victim is an engine-side no-op. *)
let impatient ~timeout_steps ?(retries = max_int) ?(backoff = 1.0) () : t =
  if timeout_steps <= 0 then invalid_arg "Abort.impatient: timeout_steps must be positive";
  if retries < 0 then invalid_arg "Abort.impatient: retries must be non-negative";
  if backoff < 1.0 then invalid_arg "Abort.impatient: backoff must be >= 1";
  {
    Plan.none with
    label =
      lazy
        (if retries = max_int && backoff = 1.0 then
           Printf.sprintf "impatient(timeout=%d)" timeout_steps
         else
           Printf.sprintf "impatient(timeout=%d,retries=%d,backoff=%g)" timeout_steps retries backoff);
    async =
      (fun ~step:_ view ->
        let out = ref [] in
        for pid = view.n - 1 downto 0 do
          let s = view.streak pid in
          if s < retries then begin
            let eff = float_of_int timeout_steps *. (backoff ** float_of_int s) in
            let w = view.waiting pid in
            if w >= 0 && float_of_int w >= eff then out := pid :: !out
          end
        done;
        !out);
    (* Entry age is measured in global engine steps, so which op a signal
       lands before depends on the whole interleaving. *)
    por = Sensitive;
  }

let random ~seed ~rate ~max_aborts ?pids () : t =
  Plan.coin
    ~label:(lazy (Printf.sprintf "abort-random(rate=%g,max=%d)" rate max_aborts))
    ?pids
    (Plan.gate "Abort.random" ~salt:0xab02 ~seed ~rate ~budget:max_aborts ())
    ignore

(* Random abort pressure with a cooldown, the abort face of [Crash.storm].
   Per the winding contract the gate is drawn and the budget consumed on
   the draw itself; only the {e victim selection} (oldest waiter, lowest
   pid on ties) reads the view, so a draw that finds nobody waiting is a
   consumed decision that signals no one. *)
let storm ~seed ~rate ~max_aborts ~gap ?(backoff = 1.0) () : t =
  let gate = Plan.gate "Abort.storm" ~salt:0xab5702 ~seed ~rate ~budget:max_aborts ~gap ~backoff () in
  {
    Plan.none with
    label =
      lazy (Printf.sprintf "abort-storm(rate=%g,max=%d,gap=%d,backoff=%g)" rate max_aborts gap backoff);
    async =
      (fun ~step view ->
        if Plan.fire gate ~step then begin
          let victim = ref (-1) in
          let age = ref (-1) in
          for pid = view.n - 1 downto 0 do
            let w = view.waiting pid in
            if w >= !age && w >= 0 then begin
              age := w;
              victim := pid
            end
          done;
          if !victim >= 0 then [ !victim ] else []
        end
        else []);
    por = Sensitive;
  }

type fired = { a_pid : int; a_op_index : int; a_step : int; a_async : bool }

let replay_fired = function
  | [] -> none
  | fired ->
      let plan_of f =
        if f.a_async then async_at [ (f.a_step, f.a_pid) ] else at_op ~pid:f.a_pid ~nth:f.a_op_index
      in
      {
        (all (List.map plan_of fired)) with
        label = lazy (Printf.sprintf "abort-replay-fired(%d)" (List.length fired));
      }
