open Rme_sim

let fast = 0

let slow = 1

type t = {
  id : int;
  name : string;
  level : int option;
  level_note : Event.note option;  (* [Level l] at [level = Some l] *)
  slow_note : Event.note;  (* [Path (level, false)], level 1 when unnumbered *)
  fast_note : Event.note;  (* [Path (level, true)] *)
  filter : Wr_lock.t;
  flock : Lock.t;  (* instrumented view of [filter], built once *)
  owner : Cell.t;  (* the splitter: pid + 1 of the fast-path occupant, 0 = free *)
  typ : Cell.t array;  (* per process path type; home = that process *)
  core : Lock.t option;
  arb : Arbitrator.t;
}

let create ?(name = "sa") ?level ?core ctx =
  let mem = Engine.Ctx.memory ctx in
  let id = Engine.Ctx.register_lock ctx name in
  let filter = Wr_lock.create ~name:(name ^ ".filter") ctx in
  let path_level = Option.value level ~default:1 in
  {
    id;
    name;
    level;
    level_note = Option.map (fun l -> Event.Level l) level;
    slow_note = Event.Path (path_level, false);
    fast_note = Event.Path (path_level, true);
    filter;
    flock = Wr_lock.lock filter;
    owner = Memory.alloc mem ~name:(name ^ ".owner") 0;
    typ = Memory.alloc_per_process mem ~name:(name ^ ".type") fast;
    core;
    arb = Arbitrator.create ~name:(name ^ ".arb") ctx;
  }

let lock_id t = t.id

let filter t = t.filter

let side_of_type typ = if typ = slow then Lock.Right else Lock.Left

let enter_front t ~pid =
  (match t.level_note with Some note -> Api.note note | None -> ());
  t.flock.Lock.acquire ~pid;
  if Api.read t.typ.(pid) <> slow then begin
    let (_ : bool) = Api.cas t.owner ~expect:0 ~value:(pid + 1) in
    ()
  end;
  if Api.read t.owner <> pid + 1 then begin
    Api.write t.typ.(pid) slow;
    Api.note t.slow_note;
    `Slow
  end
  else begin
    Api.note t.fast_note;
    `Fast
  end

let enter_back t ~pid =
  let side = side_of_type (Api.read t.typ.(pid)) in
  Arbitrator.acquire t.arb side ~pid

let release_with t ~pid ~core_release =
  let typ = Api.read t.typ.(pid) in
  Arbitrator.release t.arb (side_of_type typ) ~pid;
  if typ = slow then core_release () else Api.write t.owner 0;
  Api.write t.typ.(pid) fast;
  t.flock.Lock.release ~pid

let core_exn t =
  match t.core with
  | Some core -> core
  | None -> invalid_arg (t.name ^ ": no core lock (phase interface only)")

let lock t =
  let core = core_exn t in
  let acquire ~pid =
    (match enter_front t ~pid with `Fast -> () | `Slow -> core.Lock.acquire ~pid);
    enter_back t ~pid
  in
  let release ~pid = release_with t ~pid ~core_release:(fun () -> core.Lock.release ~pid) in
  Lock.instrument ~id:t.id ~name:t.name ~acquire ~release ()
