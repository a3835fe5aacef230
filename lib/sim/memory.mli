(** Simulated shared memory with RMR accounting.

    The store maps cells to integer contents and implements the atomic
    instructions of the paper's model (read, write, CAS, FAS — §2.6 — plus
    fetch-and-add for auxiliary counters).  Every operation returns the
    number of remote memory references it incurred under the configured
    memory model (§2.5):

    - {b CC}: a central memory plus per-process caches.  A read hits the
      cache unless the cell was written since the process last fetched it;
      a miss costs one RMR and refreshes the cache.  Writes, CAS and FAS go
      to the central memory (one RMR each) and invalidate the other
      processes' cached copies.
    - {b DSM}: each cell lives on its home node; an operation costs one RMR
      iff the executing process is not the home.

    Contents persist across simulated crashes — this is the NVRAM
    assumption of the paper's failure model (§2.2). *)

type model = CC | DSM

val pp_model : model Fmt.t

val model_of_string : string -> model option

type t

val create : model -> n:int -> t
(** [create model ~n] is an empty store for [n] processes. *)

val seal : t -> unit
(** [seal t] records [t] as the image {!rewind} returns to: its cell count
    and every cell's contents.  Call it at the end of construction, before
    any accounted operation, while every version is 0 and no process has
    fetched a line. *)

val rewind : t -> unit
(** [rewind t] returns [t] to its sealed image (the empty store before
    any {!seal}): the cells allocated since are dropped, so the next {!alloc}
    reuses their ids; the sealed cells get their sealed contents back,
    every version is 0 again and every cache row goes back to the spare
    pool.  Cell ids, contents, versions and rows then match a fresh
    construction, {!fingerprint} included.  The cells and lock handles of
    the construction stay valid; cells allocated after the seal must not
    be used again.  O(cells), no allocation once the pool is sized. *)

val model : t -> model

val n : t -> int

val alloc : t -> ?home:int -> name:string -> int -> Cell.t
(** [alloc t ~home ~name v] allocates a fresh cell with initial contents [v].
    [home] defaults to {!Cell.global}.  Allocation happens during lock
    construction (outside any simulated execution) and costs no RMRs. *)

val alloc_array : t -> ?home:int -> len:int -> name:string -> int -> Cell.t array
(** [alloc_array t ~len ~name v] allocates [len] cells with initial
    contents [v], cell [i] named [name[i]] (e.g. [arb.want[1]]), all with
    home [home] (default {!Cell.global}). *)

val alloc_per_process : t -> name:string -> int -> Cell.t array
(** [alloc_per_process t ~name v] allocates one cell per process, cell [i]
    named [name[i]] and homed at process [i] (local spinning under DSM). *)

val cell_count : t -> int

val peek : t -> Cell.t -> int
(** [peek t c] reads [c] without any accounting — for checkers, printers and
    tests, never for algorithm steps. *)

val forget : t -> pid:int -> unit
(** [forget t ~pid] drops every cache line of [pid] — called by the engine
    when the process crashes, since a restart begins with a cold cache. *)

(** {1 State digest} *)

val fingerprint : t -> int
(** [fingerprint t] is a one-word digest of the store's state: the
    contents, write versions and cache validity rows of every allocated
    cell.  Equal stores have equal fingerprints; the converse holds only
    up to hash collisions, so callers deduplicating on it (the explorer's
    state cache) must ensure a collision can only cost duplicated work,
    never a verdict.
    O(cells · n), no allocation. *)

(** {1 Accounted operations}

    Every charged access costs [0] or [1] RMR.  [write] returns its cost;
    the others return their result bare and leave the cost in
    {!last_cost}, so the engine's hot loop allocates no result tuple per
    instruction.  [last_cost] is scratch state, not part of
    {!fingerprint}; read it before the next accounted operation overwrites
    it. *)

val read_u : t -> pid:int -> Cell.t -> int

val write : t -> pid:int -> Cell.t -> int -> int
(** Returns the RMR count. *)

val cas_u : t -> pid:int -> Cell.t -> expect:int -> value:int -> bool

val fas_u : t -> pid:int -> Cell.t -> int -> int
(** Fetch-and-store; returns the previous contents. *)

val faa_u : t -> pid:int -> Cell.t -> int -> int
(** Fetch-and-add; returns the previous contents. *)

val last_cost : t -> int
(** RMR cost of the most recent [*_u] operation. *)
