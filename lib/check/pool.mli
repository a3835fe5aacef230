(** Domain-sharded map over independent tasks, for coarse work: the crash
    plans of a {!Sweep}, the seeded runs of a {!Chaos} campaign, the seeds
    of a soak.  Each task is one whole search or run, so a single shared
    claim counter costs nothing next to the work it hands out.  The
    caller's [f] must be domain-safe (no shared mutable state outside the
    task it is given). *)

val map : domains:int -> tasks:'a array -> ('a -> 'b) -> 'b array
(** [map ~domains ~tasks f] applies [f] to every task across [domains]
    workers (the calling domain is one of them) and returns the results in
    task order, so the answer is the same for every [domains].  The worker
    count is clamped to [Domain.recommended_domain_count ()] and to the
    task count: oversubscribing OCaml domains only adds stop-the-world GC
    barriers.  [domains <= 1] runs [Array.map f tasks] on the calling
    domain.

    If some task raises, workers stop claiming new tasks, every claimed
    task runs to completion, and once all workers are joined [map]
    re-raises the exception of the lowest-indexed failing task, unwrapped
    and with its backtrace — the exception a sequential left-to-right run
    would have raised. *)
