type op_info = {
  mutable pid : int;
  mutable step : int;
  mutable op_index : int;
  mutable kind : Api.kind;
  mutable cell : string option;
  mutable note : Event.note option;
  mutable unsafe_wrt : int list;
}

type por_class = Robust of int list | Sensitive

let union a b =
  match (a, b) with
  | Sensitive, _ | _, Sensitive -> Sensitive
  | Robust a, Robust b -> Robust (List.sort_uniq Int.compare (List.rev_append b a))

type ('p, 'v) t = {
  label : string Lazy.t;
  on_op : op_info -> 'p option;
  async : step:int -> 'v -> int list;
  system : step:int -> bool;
  por : por_class;
}

let none =
  {
    label = lazy "none";
    on_op = (fun _ -> None);
    async = (fun ~step:_ _ -> []);
    system = (fun ~step:_ -> false);
    por = Robust [];
  }

type gate = {
  rng : Random.State.t;
  rate : float;
  mutable budget : int;
  cooldown : bool;
  mutable next_ok : int;
  mutable gap : float;
  backoff : float;
}

let gate name ~salt ~seed ~rate ~budget ?gap ?(backoff = 1.0) () =
  let fail what = invalid_arg (name ^ ": " ^ what) in
  if rate < 0.0 || rate > 1.0 then fail "rate must be in [0, 1]";
  if Option.value gap ~default:0 < 0 then fail "gap must be non-negative";
  if backoff < 1.0 then fail "backoff must be >= 1";
  {
    rng = Random.State.make [| seed; salt |];
    rate;
    budget;
    cooldown = gap <> None;
    next_ok = (if gap = None then min_int else 0);
    gap = float_of_int (Option.value gap ~default:0);
    backoff;
  }

(* [Random.State.float g.rng 1.0 < g.rate], drawn as the standard library
   draws it — the top 53 bits of one [bits64], drawn again on 0 — so the
   stream and every value stay the same, but compared where it is drawn,
   so no float is boxed. *)
let rec draw_below g =
  let n = Int64.shift_right_logical (Random.State.bits64 g.rng) 11 in
  if n <> 0L then Int64.to_float n *. 0x1.p-53 < g.rate else draw_below g

let fire g ~step =
  g.budget > 0 && step >= g.next_ok
  && draw_below g
  && begin
       g.budget <- g.budget - 1;
       if g.cooldown then begin
         g.next_ok <- step + int_of_float g.gap;
         g.gap <- g.gap *. g.backoff
       end;
       true
     end

let rng g = g.rng

let coin ~label ?pids gate payload =
  let eligible = match pids with None -> fun _ -> true | Some ps -> fun pid -> List.mem pid ps in
  {
    none with
    label;
    on_op =
      (fun info ->
        if eligible info.pid && fire gate ~step:info.step then Some (payload gate.rng) else None);
    (* With a single eligible pid and no cooldown the RNG is drawn only on
       that pid's ops, in its own program order; a cooldown reads the
       global step counter. *)
    por = (match pids with Some [ p ] when not gate.cooldown -> Robust [ p ] | _ -> Sensitive);
  }

let at_op ~tag ~pid ~nth payload =
  let fired = ref false and hit = Some payload in
  {
    none with
    label = lazy (Printf.sprintf "%sat-op(p%d,%d)" tag pid nth);
    on_op =
      (fun info ->
        if (not !fired) && info.pid = pid && info.op_index = nth then begin
          fired := true;
          hit
        end
        else None);
    por = Robust [ pid ];
  }

let rec any_due now = function [] -> false | (s, _) :: rest -> now >= s || any_due now rest

let async_at ~tag specs =
  let pending = ref specs in
  {
    none with
    label = lazy (tag ^ "async-at");
    async =
      (fun ~step _ ->
        (* Consulted every iteration: partition only when an entry is due. *)
        if not (any_due step !pending) then []
        else begin
          let due, rest = List.partition (fun (s, _) -> step >= s) !pending in
          pending := rest;
          List.map snd due
        end);
    por = Sensitive;
  }

let system_at ~step =
  let fired = ref false in
  {
    none with
    label = lazy (Printf.sprintf "system-at(%d)" step);
    system =
      (fun ~step:now ->
        (not !fired) && now >= step
        && begin
             fired := true;
             true
           end);
    por = Sensitive;
  }

(* The first firing payload, after consulting every member. *)
let rec first_fired info acc = function
  | [] -> acc
  | p :: rest ->
      let d = p.on_op info in
      first_fired info (match acc with None -> d | Some _ -> acc) rest

(* Every member's pids, in member order; copies a list only when two
   members fire at once. *)
let rec async_all ~step v = function
  | [] -> []
  | p :: rest -> (
      let pids = p.async ~step v in
      match async_all ~step v rest with [] -> pids | more -> pids @ more)

let rec system_any ~step acc = function
  | [] -> acc
  | p :: rest -> system_any ~step (p.system ~step || acc) rest

(* Every member is consulted on every axis, so each member's state evolves
   from the consult stream alone: a robust member still decides from its
   victim's own history, and the union of robust plans is robust over the
   union of victims.  The consults recurse directly, so an iteration where
   no member fires allocates nothing. *)
let all plans =
  {
    label = lazy (String.concat "+" (List.map (fun p -> Lazy.force p.label) plans));
    on_op = (fun info -> first_fired info None plans);
    async = (fun ~step v -> async_all ~step v plans);
    system = (fun ~step -> system_any ~step false plans);
    por = List.fold_left (fun acc p -> union acc p.por) (Robust []) plans;
  }
