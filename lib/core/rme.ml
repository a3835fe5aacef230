module Sim = Rme_sim
module Locks = Rme_locks
module Check = Rme_check
module Spec = Spec
module Workload = Workload
module Report = Report
module Svg_chart = Svg_chart

let version = "1.0.0"
