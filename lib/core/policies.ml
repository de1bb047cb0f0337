let rename name p = { p with Sim.Policy.name }

let young_daly ~params =
  rename "YoungDaly"
    (Sim.Policy.periodic ~params ~period:(Model.young_daly_period params))

let daly_second_order ~params =
  rename "DalySecondOrder"
    (Sim.Policy.periodic ~params ~period:(Model.daly_second_order_period params))

let lambert_optimal_period ~params =
  rename "LambertPeriod"
    (Sim.Policy.periodic ~params ~period:(Model.optimal_period params))

let of_threshold_table ~name ~params table =
  Sim.Policy.threshold_segments ~name ~params table.Threshold.thresholds

let first_order ~params ~horizon =
  of_threshold_table ~name:"FirstOrder" ~params
    (Threshold.table_first_order ~params ~up_to:horizon)

let numerical_optimum ~params ~horizon =
  of_threshold_table ~name:"NumericalOptimum" ~params
    (Threshold.table_numerical ~params ~up_to:horizon)

let dynamic_programming ~params ~quantum ~horizon =
  rename "DynamicProgramming"
    (Optimal.policy (Optimal.build ~params ~quantum ~horizon ()))

let single_final ~params = Sim.Policy.single_final ~params

let all_paper ~params ~quantum ~horizon =
  [
    young_daly ~params;
    first_order ~params ~horizon;
    numerical_optimum ~params ~horizon;
    dynamic_programming ~params ~quantum ~horizon;
  ]
