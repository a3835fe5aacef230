(** Adaptive recoverable mutual exclusion — public facade.

    Reproduction of Dhoked & Mittal, "An Adaptive Approach to Recoverable
    Mutual Exclusion" (PODC 2020).  The library bundles:

    - {!Sim}: a deterministic shared-memory simulator with crash injection
      and RMR accounting under the CC and DSM models;
    - {!Locks}: the paper's algorithms (WR-Lock, SA-Lock, BA-Lock, memory
      reclamation) and the baseline locks of its Table 1;
    - {!Check}: history property checkers and a bounded exhaustive schedule
      explorer;
    - {!Spec} / {!Workload} / {!Report}: the experiment harness.

    Quickstart:
    {[
      let res =
        Rme.Workload.run Rme.Spec.headline
          { Rme.Workload.default_cfg with n = 8; scenario = Fas_storm { f = 4; rate = 0.5 } }
      in
      Fmt.pr "%a@." Rme.Sim.Engine.pp_summary res
    ]} *)

module Sim = Rme_sim
module Locks = Rme_locks
module Check = Rme_check
module Spec = Spec
module Workload = Workload
module Report = Report
module Svg_chart = Svg_chart

val version : string
