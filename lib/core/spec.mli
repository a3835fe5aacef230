(** The lock registry: every algorithm in the repository, by name.

    This is the catalogue the CLI, the examples and the bench harness draw
    from; the [table1] tag marks the rows of the paper's Table 1 (plus the
    extra baselines this reproduction adds). *)

(** How a lock's RMR complexity is expected to behave — the classification
    vocabulary of §2.5 (Table 2). *)
type expectation = {
  failure_free : string;  (** e.g. "O(1)" *)
  limited_failures : string;  (** e.g. "O(sqrt F)" *)
  arbitrary_failures : string;  (** e.g. "O(log n / log log n)" *)
  recoverability : [ `None | `Weak | `Strong ];
}

type t = {
  key : string;
  descr : string;
  expectation : expectation;
  ff_bound : (int -> int) option;
      (** enforced contract: a concrete upper bound, as a function of n, on
          the worst failure-free passage RMRs under CC.  The test suite
          drives every spec across n and fails if a passage exceeds it —
          the asymptotic claim made falsifiable. *)
  table1 : bool;  (** include in the Table-1 reproduction *)
  crash_safe : bool;  (** may be driven with crash plans (false: plain MCS) *)
  abortable : bool;
      (** carries a real abort port: may be driven with abort plans
          ({!Rme_sim.Abort}) and is subject to the abort-liveness and
          lost-wakeup checkers.  Non-abortable locks can still be probed
          through {!Rme_locks.Lock.abortable}, which answers
          [Not_supported]. *)
  make : Rme_locks.Lock.maker;
}

val all : t list

val find : string -> t option

val find_exn : string -> t

val keys : unit -> string list

val headline : t
(** The paper's contribution: BA-Lock over the JJJ-shape base lock. *)

val chaos_case : ?n:int -> t -> Rme_check.Chaos.case
(** The lock as a {!Rme_check.Chaos} campaign case: its key and maker, the
    weak interval form of the battery when its recoverability is [`Weak],
    its abort port and its [ff_bound] at [n], a CC bound: leave [n] out for
    runs that draw [n] or the model ({!Rme_check.Chaos.Oblivious}). *)
