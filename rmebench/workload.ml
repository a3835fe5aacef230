(* What main.ml needs from a workload once its inputs are generated and
   it is warmed up. *)
type prepared = {
  chunk : ?tr:Span.t -> int -> Tally.round;
      (** run chunk [i] of the measured phase; spans go to [tr] *)
  count_ops : (Rme_sim.Api.kind -> unit) -> unit;
      (** run chunk 0 again, reporting the kind of every instruction *)
  same_inputs : bool;  (** every chunk runs the same inputs *)
}
