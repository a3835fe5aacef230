(** Growable arrays.

    The standard library of OCaml 5.1 does not provide [Dynarray] yet, so the
    simulator carries its own minimal growable-array module.  Elements are
    stored contiguously; [push] is amortised O(1). *)

type 'a t

val create : unit -> 'a t
(** [create ()] is an empty vector. *)

val make : int -> 'a -> 'a t
(** [make capacity x] is an empty vector whose first [capacity] pushes do
    not grow it; [x] fills the unused slots and is never observed. *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit
(** [push t x] appends [x] at the end of [t]. *)

val get : 'a t -> int -> 'a
(** [get t i] is the [i]-th element.  @raise Invalid_argument when out of
    bounds. *)

val unsafe_get : 'a t -> int -> 'a
(** [unsafe_get t i] is [get t i] without the bounds check, for hot loops
    whose index is already validated against {!length}.  Out-of-bounds
    behaviour is undefined. *)

val set : 'a t -> int -> 'a -> unit
(** [set t i x] replaces the [i]-th element.  @raise Invalid_argument when out
    of bounds. *)

val last : 'a t -> 'a
(** [last t] is the most recently pushed element.  @raise Invalid_argument on
    an empty vector. *)

val pop : 'a t -> 'a
(** [pop t] removes and returns the last element.  @raise Invalid_argument on
    an empty vector. *)

val clear : 'a t -> unit
(** [clear t] removes all elements (O(1); storage is retained). *)

val truncate : 'a t -> int -> unit
(** [truncate t len] keeps the first [len] elements (O(1); storage is
    retained).  @raise Invalid_argument unless [0 <= len <= length t]. *)

val iter : ('a -> unit) -> 'a t -> unit

val iteri : (int -> 'a -> unit) -> 'a t -> unit

val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc

val exists : ('a -> bool) -> 'a t -> bool

val to_list : 'a t -> 'a list

val to_array : 'a t -> 'a array

val of_list : 'a list -> 'a t
