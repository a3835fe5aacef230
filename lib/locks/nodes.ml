open Rme_sim

type node = { id : int; next : Cell.t; locked : Cell.t; owner : int }

let null = 0

(* [stem] is the registry's prefix plus [".n"]: node [id]'s cells are
   [stem ^ id ^ ".next"] and [stem ^ id ^ ".locked"]. *)
type registry = { mem : Memory.t; stem : string; nodes : node Vec.t }

let create_registry mem ~prefix = { mem; stem = prefix ^ ".n"; nodes = Vec.create () }

let fresh reg ~owner =
  let id = Vec.length reg.nodes + 1 in
  let node_name = reg.stem ^ string_of_int id in
  let node =
    {
      id;
      next = Memory.alloc reg.mem ~home:owner ~name:(node_name ^ ".next") null;
      locked = Memory.alloc reg.mem ~home:owner ~name:(node_name ^ ".locked") 0;
      owner;
    }
  in
  Vec.push reg.nodes node;
  node

let get reg id =
  if id <= 0 || id > Vec.length reg.nodes then
    invalid_arg (Printf.sprintf "Nodes.get: bad node id %d" id);
  Vec.get reg.nodes (id - 1)

let count reg = Vec.length reg.nodes
