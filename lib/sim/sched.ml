(* The label is built only when read: the seeded schedulers would pay a
   [Printf.sprintf] per construction, and campaigns build one per run. *)
type t = { label : string Lazy.t; pick : runnable:int array -> step:int -> int }

let label t = Lazy.force t.label

let pick t ~runnable ~step =
  if Array.length runnable = 0 then invalid_arg "Sched.pick: empty runnable set";
  t.pick ~runnable ~step

let make ~label pick = { label = Lazy.from_val label; pick }

let round_robin () =
  let cursor = ref 0 in
  {
    label = lazy "round-robin";
    pick =
      (fun ~runnable ~step:_ ->
        (* Smallest runnable pid strictly greater than the cursor, wrapping. *)
        let best = ref (-1) in
        let smallest = ref runnable.(0) in
        Array.iter
          (fun p ->
            if p < !smallest then smallest := p;
            if p > !cursor && (!best = -1 || p < !best) then best := p)
          runnable;
        let chosen = if !best = -1 then !smallest else !best in
        cursor := chosen;
        chosen);
  }

let random ~seed =
  let rng = Random.State.make [| seed; 0xfa1afe1 |] in
  {
    label = lazy (Printf.sprintf "random(%d)" seed);
    pick = (fun ~runnable ~step:_ -> runnable.(Random.State.int rng (Array.length runnable)));
  }

let greedy () =
  let last = ref (-1) in
  {
    label = lazy "greedy";
    pick =
      (fun ~runnable ~step:_ ->
        if Array.exists (fun p -> p = !last) runnable then !last
        else begin
          let m = Array.fold_left min runnable.(0) runnable in
          last := m;
          m
        end);
  }

let burst ~seed ~len =
  if len <= 0 then invalid_arg "Sched.burst: len must be positive";
  let rng = Random.State.make [| seed; 0xb025 |] in
  let current = ref (-1) in
  let remaining = ref 0 in
  {
    label = lazy (Printf.sprintf "burst(%d,%d)" seed len);
    pick =
      (fun ~runnable ~step:_ ->
        if !remaining > 0 && Array.exists (fun p -> p = !current) runnable then begin
          decr remaining;
          !current
        end
        else begin
          current := runnable.(Random.State.int rng (Array.length runnable));
          remaining := len - 1;
          !current
        end);
  }

(* Both index the ready set as given: the engine builds it in ascending
   pid order, so the [i]-th entry is the [i]-th smallest runnable pid.
   Each runs once per engine step, hence a plain loop and no allocation. *)
let recording ~inner ~decisions =
  {
    label = lazy (Printf.sprintf "recording(%s)" (Lazy.force inner.label));
    pick =
      (fun ~runnable ~step ->
        let chosen = inner.pick ~runnable ~step in
        let idx = ref 0 in
        for i = 0 to Array.length runnable - 1 do
          if runnable.(i) = chosen then idx := i
        done;
        Vec.push decisions !idx;
        chosen);
  }

let trace ~decisions ~record () =
  let i = ref 0 in
  {
    label = lazy "trace";
    pick =
      (fun ~runnable ~step:_ ->
        let choice = if !i < Vec.length decisions then Vec.get decisions !i else 0 in
        incr i;
        let degree = Array.length runnable in
        Vec.push record degree;
        runnable.(((choice mod degree) + degree) mod degree));
  }
