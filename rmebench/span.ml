(* In-memory span recorder for the traced run.

   A span covers one call into a layer, made from the benchmark's own
   code: a setup callback, [Engine.run], [Explore.explore] and its
   [check], [Chaos.run_one], [Chaos.battery].  Spans nest through a
   current-span pointer, so a layer's self time is its span's duration
   minus the time its child spans cover.  Nothing is written until
   [write] at the end of the run. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type t = {
  mutable name : string array;  (** layer, e.g. "engine" *)
  mutable tag : string array;  (** lock key or subject, "" when none *)
  mutable parent : int array;  (** -1 at the root *)
  mutable t0 : float array;
  mutable t1 : float array;
  mutable n : int;
  mutable cur : int;
}

let create () =
  let cap = 4096 in
  {
    name = Array.make cap "";
    tag = Array.make cap "";
    parent = Array.make cap (-1);
    t0 = Array.make cap 0.0;
    t1 = Array.make cap 0.0;
    n = 0;
    cur = -1;
  }

let grow t =
  let cap = 2 * Array.length t.name in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.name <- extend t.name "";
  t.tag <- extend t.tag "";
  t.parent <- extend t.parent (-1);
  t.t0 <- extend t.t0 0.0;
  t.t1 <- extend t.t1 0.0

let enter t name tag =
  if t.n = Array.length t.name then grow t;
  let i = t.n in
  t.name.(i) <- name;
  t.tag.(i) <- tag;
  t.parent.(i) <- t.cur;
  t.cur <- i;
  t.n <- i + 1;
  t.t0.(i) <- now ();
  i

let leave t i =
  t.t1.(i) <- now ();
  t.cur <- t.parent.(i)

(* [wrap tr name tag f] runs [f ()] inside a span when tracing, and
   calls it bare otherwise. *)
let wrap tr name tag f =
  match tr with
  | None -> f ()
  | Some t -> (
      let i = enter t name tag in
      match f () with
      | v ->
          leave t i;
          v
      | exception e ->
          leave t i;
          raise e)

(* [wrap_fn tr name tag f] is [f], timed per call when tracing. *)
let wrap_fn tr name tag f =
  match tr with None -> f | Some _ -> fun x -> wrap tr name tag (fun () -> f x)

let dur t i = t.t1.(i) -. t.t0.(i)

(* Self time summed per layer name. *)
let self_by_name t =
  let child = Array.make t.n 0.0 in
  for i = 0 to t.n - 1 do
    let p = t.parent.(i) in
    if p >= 0 then child.(p) <- child.(p) +. dur t i
  done;
  let tbl = Hashtbl.create 16 in
  for i = 0 to t.n - 1 do
    let prev = Option.value ~default:0.0 (Hashtbl.find_opt tbl t.name.(i)) in
    Hashtbl.replace tbl t.name.(i) (prev +. dur t i -. child.(i))
  done;
  tbl

(* Inclusive time of the spans of one layer, of one tag if given. *)
let total ?tag t ~name =
  let s = ref 0.0 in
  for i = 0 to t.n - 1 do
    if t.name.(i) = name && match tag with None -> true | Some g -> t.tag.(i) = g then
      s := !s +. dur t i
  done;
  !s

(* One line per span: id, parent, layer, tag, start and end in seconds
   relative to the first span. *)
let write t path =
  let oc = open_out path in
  let base = if t.n > 0 then t.t0.(0) else 0.0 in
  output_string oc "id\tparent\tlayer\ttag\tstart_s\tend_s\n";
  for i = 0 to t.n - 1 do
    Printf.fprintf oc "%d\t%d\t%s\t%s\t%.9f\t%.9f\n" i t.parent.(i) t.name.(i) t.tag.(i)
      (t.t0.(i) -. base) (t.t1.(i) -. base)
  done;
  close_out oc
