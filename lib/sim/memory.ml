type model = CC | DSM

let pp_model ppf = function
  | CC -> Fmt.string ppf "CC"
  | DSM -> Fmt.string ppf "DSM"

let model_of_string s =
  match String.lowercase_ascii s with
  | "cc" -> Some CC
  | "dsm" -> Some DSM
  | _ -> None

type t = {
  model : model;
  n : int;
  contents : int Vec.t;
  version : int Vec.t;
  (* [cached] holds, per cell, the version each process last fetched (the
     line is valid iff it equals the current version).  Rows are allocated
     lazily on a cell's first accounted access ([no_row] until then): large
     lock structures whose deep parts are never touched (e.g. the base
     levels of BA-Lock in a failure-free run) cost nothing.  Only used
     under CC. *)
  cached : int array Vec.t;
  (* Rows of the cells a [rewind] dropped, handed out again by [row]. *)
  spare : int array Vec.t;
  (* RMR cost of the last unboxed-variant operation ([read_u] etc.): the
     engine's hot loop reads it back instead of allocating a result tuple
     per instruction. *)
  mutable last_cost : int;
  (* The post-construction image [rewind] returns to: the contents of
     cells [0, Array.length image) when [seal] ran ([||]: none). *)
  mutable image : int array;
}

let create model ~n =
  if n <= 0 then invalid_arg "Memory.create: n must be positive";
  {
    model;
    n;
    contents = Vec.create ();
    version = Vec.create ();
    cached = Vec.create ();
    spare = Vec.create ();
    last_cost = 0;
    image = [||];
  }

(* A cell no process has fetched yet.  Never written: [row] replaces it. *)
let no_row : int array = [||]

let seal t = t.image <- Vec.to_array t.contents

(* Construction writes no version and fetches no line, so the image is
   the contents alone: every version back to 0, every row unfetched. *)
let rewind t =
  let mark = Array.length t.image in
  for c = 0 to Vec.length t.cached - 1 do
    let r = Vec.unsafe_get t.cached c in
    if r != no_row then begin
      Vec.push t.spare r;
      Vec.set t.cached c no_row
    end
  done;
  Vec.truncate t.contents mark;
  Vec.truncate t.version mark;
  Vec.truncate t.cached mark;
  for c = 0 to mark - 1 do
    Vec.set t.contents c t.image.(c);
    Vec.set t.version c 0
  done;
  t.last_cost <- 0

let model t = t.model

let n t = t.n

let alloc_at t ~home ~name v =
  if home <> Cell.global && (home < 0 || home >= t.n) then
    invalid_arg (Printf.sprintf "Memory.alloc %s: home %d out of range" name home);
  let id = Vec.length t.contents in
  Vec.push t.contents v;
  Vec.push t.version 0;
  Vec.push t.cached no_row;
  Cell.make ~id ~name ~home

let alloc t ?(home = Cell.global) ~name v = alloc_at t ~home ~name v

(* [name ^ "[" ^ string_of_int i ^ "]"] in two string allocations, not
   four. *)
let indexed name i =
  let idx = string_of_int i in
  let len = String.length name and d = String.length idx in
  let b = Bytes.create (len + d + 2) in
  Bytes.blit_string name 0 b 0 len;
  Bytes.set b len '[';
  Bytes.blit_string idx 0 b (len + 1) d;
  Bytes.set b (len + d + 1) ']';
  Bytes.unsafe_to_string b

let alloc_array t ?(home = Cell.global) ~len ~name v =
  Array.init len (fun i -> alloc_at t ~home ~name:(indexed name i) v)

let alloc_per_process t ~name v =
  Array.init t.n (fun i -> alloc_at t ~home:i ~name:(indexed name i) v)

let cell_count t = Vec.length t.contents

let peek t (c : Cell.t) = Vec.get t.contents c.id

let check_pid t pid =
  if pid < 0 || pid >= t.n then invalid_arg (Printf.sprintf "Memory: pid %d out of range" pid)

(* RMR cost of touching [c] from [pid] under DSM. *)
let dsm_cost (c : Cell.t) pid = if c.home = pid then 0 else 1

(* A fresh row means "cached by nobody": version 0 vs stored -1. *)
let row t (c : Cell.t) =
  let r = Vec.get t.cached c.id in
  if r != no_row then r
  else begin
    let r =
      if Vec.is_empty t.spare then Array.make t.n (-1)
      else begin
        let r = Vec.pop t.spare in
        Array.fill r 0 t.n (-1);
        r
      end
    in
    Vec.set t.cached c.id r;
    r
  end

let forget t ~pid =
  check_pid t pid;
  if t.model = CC then
    for cell = 0 to Vec.length t.cached - 1 do
      let r = Vec.get t.cached cell in
      if r != no_row then r.(pid) <- -1
    done

(* The value comes back unboxed and the cost lands in [last_cost] — the
   engine's per-instruction dispatch reads it back without a tuple
   allocation. *)
let read_u t ~pid (c : Cell.t) =
  check_pid t pid;
  let v = Vec.get t.contents c.id in
  (match t.model with
  | DSM -> t.last_cost <- dsm_cost c pid
  | CC ->
      let r = row t c in
      let ver = Vec.get t.version c.id in
      if r.(pid) = ver then t.last_cost <- 0
      else begin
        r.(pid) <- ver;
        t.last_cost <- 1
      end);
  v

let last_cost t = t.last_cost

(* A mutation bumps the version (invalidating every cached copy) and leaves
   the writer's cache holding the fresh value. *)
let mutate t ~pid (c : Cell.t) v =
  Vec.set t.contents c.id v;
  let ver = Vec.get t.version c.id + 1 in
  Vec.set t.version c.id ver;
  if t.model = CC then (row t c).(pid) <- ver

let write_cost t ~pid (c : Cell.t) = match t.model with CC -> 1 | DSM -> dsm_cost c pid

let write t ~pid (c : Cell.t) v =
  check_pid t pid;
  mutate t ~pid c v;
  write_cost t ~pid c

let cas_u t ~pid (c : Cell.t) ~expect ~value =
  check_pid t pid;
  let old = Vec.get t.contents c.id in
  t.last_cost <- write_cost t ~pid c;
  if old = expect then begin
    mutate t ~pid c value;
    true
  end
  else begin
    (* A failed CAS still fetched the line. *)
    if t.model = CC then (row t c).(pid) <- Vec.get t.version c.id;
    false
  end

let fas_u t ~pid (c : Cell.t) v =
  check_pid t pid;
  let old = Vec.get t.contents c.id in
  mutate t ~pid c v;
  t.last_cost <- write_cost t ~pid c;
  old

(* One-word digest of the store's state: cell contents, write versions,
   and the per-process cache validity rows.  Two stores
   with equal fingerprints are equal for the explorer's purposes with the
   usual hash-collision caveat — callers that need certainty (the state
   cache) must pair the fingerprint with enough engine state that a
   collision can only cost duplicated work, never a verdict. *)
let fingerprint t =
  let mix h x = (h lxor x) * 0x100000001b3 land max_int in
  let h = ref (mix 0x2545f4914f6cdd1d t.n) in
  let len = Vec.length t.contents in
  for c = 0 to len - 1 do
    h := mix !h (Vec.get t.contents c);
    h := mix !h (Vec.get t.version c);
    let r = Vec.get t.cached c in
    if r == no_row then h := mix !h 0x9e3779b9
    else
      for p = 0 to t.n - 1 do
        h := mix !h r.(p)
      done
  done;
  !h

let faa_u t ~pid (c : Cell.t) d =
  check_pid t pid;
  let old = Vec.get t.contents c.id in
  mutate t ~pid c (old + d);
  t.last_cost <- write_cost t ~pid c;
  old
