(* Ablation study: which ingredients of the optimal fixed-time strategy
   actually matter?

   Compares, on one platform and a range of reservation lengths, the
   exact expected work (no Monte-Carlo noise) of:
   - the paper's four strategies;
   - fixed-work-optimal periods (Daly second-order, Lambert): optimal
     for the WRONG objective;
   - a single final checkpoint (no intermediate protection);
   - VariableSegments (continuous offsets, threshold counts);
   - the unrestricted k-free optimum.

   Run with:  dune exec examples/ablation_study.exe *)

let params = Fault.Params.paper ~lambda:0.005 ~c:20.0 ~d:0.0
let quantum = 1.0

let () =
  Printf.printf "platform %s (Young/Daly period %.0f)\n\n"
    (Fault.Params.to_string params)
    (Core.Model.young_daly_period params);
  let horizons = [ 100.0; 200.0; 400.0; 800.0 ] in
  let dp_tables =
    Core.Dp.build ~params ~quantum ~horizon:(List.fold_left Float.max 0.0 horizons) ()
  in
  let opt_tables =
    Core.Optimal.build ~params ~quantum
      ~horizon:(List.fold_left Float.max 0.0 horizons) ()
  in
  let strategies horizon =
    [
      ("YoungDaly", Core.Policies.young_daly ~params);
      ("DalySecondOrder", Core.Policies.daly_second_order ~params);
      ("LambertPeriod", Core.Policies.lambert_optimal_period ~params);
      ("SingleFinal", Core.Policies.single_final ~params);
      ("FirstOrder", Core.Policies.first_order ~params ~horizon);
      ("NumericalOptimum", Core.Policies.numerical_optimum ~params ~horizon);
      ("VariableSegments",
       Core.Plan_opt.variable_segments_policy ~params ~horizon ~opt:opt_tables);
      ("DynamicProgramming", Core.Dp.policy dp_tables);
      ("OptimalUnrestricted", Core.Optimal.policy opt_tables);
    ]
  in
  let table =
    Output.Table.create
      ~columns:
        (("strategy", Output.Table.Left)
        :: List.map
             (fun t -> (Printf.sprintf "T=%g" t, Output.Table.Right))
             horizons)
  in
  let names = List.map fst (strategies 100.0) in
  List.iter
    (fun name ->
      let cells =
        List.map
          (fun horizon ->
            let policy = List.assoc name (strategies horizon) in
            let v =
              Core.Expected.policy_value ~params ~quantum ~horizon ~policy
            in
            Printf.sprintf "%.4f" (v /. (horizon -. params.Fault.Params.c)))
          horizons
      in
      Output.Table.add_row table (name :: cells))
    names;
  print_endline
    "exact expected proportion of work (quantised model, u = 1), per\n\
     reservation length:";
  Output.Table.print table;
  print_newline ();
  print_endline
    "reading the ablation:\n\
     - SingleFinal collapses as T grows: intermediate checkpoints are the\n\
    \  first-order ingredient;\n\
     - the fixed-work periods (Daly / Lambert) fix part of YoungDaly's gap\n\
    \  but not the final-checkpoint placement;\n\
     - NumericalOptimum ~ VariableSegments ~ DynamicProgramming: equal\n\
    \  segments with the right COUNT capture nearly all of the optimum,\n\
    \  the exact offsets and the quantisation are second-order;\n\
     - OptimalUnrestricted = DynamicProgramming: tracking the planned\n\
    \  number of checkpoints loses nothing."
