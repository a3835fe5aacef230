(** Queue nodes for the MCS family of locks.

    A node owns two shared cells — [next] (reference to the successor node,
    0 = null) and [locked] (the flag its owner spins on) — allocated in the
    owner's memory module so that spinning is local under DSM.  Node ids are
    positive integers; cell contents holding node references store ids, with
    {!null} (= 0) for the null reference. *)

open Rme_sim

type node = private { id : int; next : Cell.t; locked : Cell.t; owner : int }

val null : int
(** The null node reference (0). *)

type registry

val create_registry : Engine.Ctx.t -> prefix:string -> registry
(** A registry allocating its nodes' cells in the context's store.  It
    registers its own {!Engine.Ctx.on_rewind} reset: a rewound store drops
    the nodes runs allocated, and the registry drops them with it, so
    every run resolves the node ids a fresh construction would.  The
    names of a node id's two cells are built once and kept across
    rewinds: a rewound run that creates node [k] again reuses them. *)

val fresh : registry -> owner:int -> node
(** Allocate a new node owned by process [owner].  May be called from inside
    a simulated execution (it models [new QNode] and costs no RMRs; the
    algorithm initialises the fields with accounted writes afterwards). *)

val get : registry -> int -> node
(** Resolve a node id.  @raise Invalid_argument on 0 or unknown ids. *)

val count : registry -> int
(** Number of nodes ever allocated (space-bound measurements, §7.2). *)
