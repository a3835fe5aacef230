open Rme_sim

type node = { id : int; next : Cell.t; locked : Cell.t; owner : int }

let null = 0

(* [stem] is the registry's prefix plus [".n"]: node [id]'s cells are
   [stem ^ id ^ ".next"] and [stem ^ id ^ ".locked"], built on the first
   [fresh] of that id and kept in [names] (index [id - 1]) for the node
   each later run on a rewound arena creates again. *)
type registry = {
  mem : Memory.t;
  stem : string;
  nodes : node Vec.t;
  names : (string * string) Vec.t;
}

(* Nodes are allocated in id order, so the ones whose cells a store
   rewind dropped are a suffix. *)
let rec drop_rewound reg =
  if
    (not (Vec.is_empty reg.nodes))
    && (Vec.last reg.nodes).next.Cell.id >= Memory.cell_count reg.mem
  then begin
    ignore (Vec.pop reg.nodes);
    drop_rewound reg
  end

let create_registry ctx ~prefix =
  let reg =
    {
      mem = Engine.Ctx.memory ctx;
      stem = prefix ^ ".n";
      nodes = Vec.create ();
      names = Vec.create ();
    }
  in
  Engine.Ctx.on_rewind ctx (fun () -> drop_rewound reg);
  reg

let fresh reg ~owner =
  let id = Vec.length reg.nodes + 1 in
  if id > Vec.length reg.names then begin
    let node_name = reg.stem ^ string_of_int id in
    Vec.push reg.names (node_name ^ ".next", node_name ^ ".locked")
  end;
  let next_name, locked_name = Vec.get reg.names (id - 1) in
  let node =
    {
      id;
      next = Memory.alloc reg.mem ~home:owner ~name:next_name null;
      locked = Memory.alloc reg.mem ~home:owner ~name:locked_name 0;
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
