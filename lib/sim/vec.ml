type 'a t = { mutable data : 'a array; mutable len : int }

let create () = { data = [||]; len = 0 }

let make capacity x = { data = Array.make capacity x; len = 0 }

let length t = t.len

let is_empty t = t.len = 0

let push t x =
  if t.len = Array.length t.data then begin
    let cap = max 8 (2 * Array.length t.data) in
    (* [x] is used as the filler for the fresh slots; slots beyond [len] are
       never observed. *)
    let data = Array.make cap x in
    Array.blit t.data 0 data 0 t.len;
    t.data <- data
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let check t i name =
  if i < 0 || i >= t.len then invalid_arg (Printf.sprintf "Vec.%s: index %d out of bounds [0, %d)" name i t.len)

let get t i =
  check t i "get";
  t.data.(i)

let unsafe_get t i = Array.unsafe_get t.data i

let set t i x =
  check t i "set";
  t.data.(i) <- x

let last t =
  if t.len = 0 then invalid_arg "Vec.last: empty";
  t.data.(t.len - 1)

let pop t =
  if t.len = 0 then invalid_arg "Vec.pop: empty";
  t.len <- t.len - 1;
  t.data.(t.len)

let clear t = t.len <- 0

let truncate t len =
  if len < 0 || len > t.len then invalid_arg (Printf.sprintf "Vec.truncate: %d not in [0, %d]" len t.len);
  t.len <- len

let iter f t =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

let iteri f t =
  for i = 0 to t.len - 1 do
    f i t.data.(i)
  done

let fold_left f acc t =
  let acc = ref acc in
  for i = 0 to t.len - 1 do
    acc := f !acc t.data.(i)
  done;
  !acc

let exists p t =
  let rec loop i = i < t.len && (p t.data.(i) || loop (i + 1)) in
  loop 0

(* Top level, so a call builds no closure over [t]. *)
let rec cons_down data i acc = if i < 0 then acc else cons_down data (i - 1) (data.(i) :: acc)

let to_list t = cons_down t.data (t.len - 1) []

let to_array t = Array.sub t.data 0 t.len

let of_list xs =
  let t = create () in
  List.iter (push t) xs;
  t
