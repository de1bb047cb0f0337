(* Tests for Core.Plan_opt: the continuous-offset objective against the
   closed-form evaluators, and the optimiser against known optima from
   Section 4. *)

module PO = Core.Plan_opt
module P = Fault.Params

let close ?(eps = 1e-9) = Alcotest.(check (float eps))

let params = P.paper ~lambda:0.003 ~c:10.0 ~d:0.0
let no_continuation _ = 0.0

let test_objective_matches_first_failure_value () =
  (* With a zero continuation, the objective must coincide with the
     until-first-failure expectation. *)
  List.iter
    (fun offsets ->
      close ~eps:1e-6
        (Printf.sprintf "plan [%s]"
           (String.concat "; " (List.map string_of_float offsets)))
        (Core.Expected.first_failure_value ~params ~recovering:false ~offsets)
        (PO.expected_work ~params ~tleft:400.0 ~recovering:false
           ~continuation:no_continuation ~offsets))
    [ [ 400.0 ]; [ 200.0; 400.0 ]; [ 120.0; 260.0; 400.0 ]; [ 50.0; 390.0 ] ]

let test_objective_with_recovery () =
  close ~eps:1e-6 "recovery charged"
    (Core.Expected.first_failure_value ~params ~recovering:true
       ~offsets:[ 300.0 ])
    (PO.expected_work ~params ~tleft:300.0 ~recovering:true
       ~continuation:no_continuation ~offsets:[ 300.0 ])

let test_empty_plan () =
  close "empty plan" 0.0
    (PO.expected_work ~params ~tleft:100.0 ~recovering:false
       ~continuation:no_continuation ~offsets:[])

let test_optimize_two_matches_alpha_opt () =
  (* With no continuation and the last checkpoint pinned near the end by
     optimality, the two-checkpoint optimiser must recover α_opt(T) of
     Section 4.3 for the first checkpoint... except that it may also
     move the SECOND checkpoint off the end. Restrict the comparison to
     the gain achieved: the optimiser must do at least as well as the
     analytic α_opt plan. *)
  let t = 500.0 in
  let alpha = Core.Analysis.alpha_opt ~params ~t in
  let analytic_plan = [ alpha *. t; t ] in
  let analytic_value =
    PO.expected_work ~params ~tleft:t ~recovering:false
      ~continuation:no_continuation ~offsets:analytic_plan
  in
  let r =
    PO.optimize ~params ~tleft:t ~recovering:false ~k:2
      ~continuation:no_continuation ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "optimised %.4f >= analytic-alpha %.4f" r.PO.expected_work
       analytic_value)
    true
    (r.PO.expected_work >= analytic_value -. 1e-4)

let test_optimize_single_checkpoint_heavy_failures () =
  (* Section 4.2 regime: λ so large that the single checkpoint should
     move AWAY from the end of the reservation. *)
  let params = P.make ~lambda:0.5 ~c:4.0 ~r:4.0 ~d:0.0 in
  let r =
    PO.optimize ~params ~tleft:10.0 ~recovering:false ~k:1
      ~continuation:no_continuation ()
  in
  match r.PO.offsets with
  | [ o ] ->
      Alcotest.(check bool)
        (Printf.sprintf "checkpoint at %.3f, strictly before 10" o)
        true
        (o < 10.0 -. 0.5);
      (* the analytic optimum maximises e^{-λo}(o - c): o = c + 1/λ = 6 *)
      close ~eps:0.05 "analytic optimum o = c + 1/λ" 6.0 o
  | other ->
      Alcotest.failf "expected one checkpoint, got %d" (List.length other)

let test_optimize_respects_feasibility () =
  let r =
    PO.optimize ~params ~tleft:200.0 ~recovering:true ~k:3
      ~continuation:no_continuation ()
  in
  Sim.Policy.validate_plan ~params ~tleft:200.0 ~recovering:true
    (Plans.of_list r.PO.offsets)

let test_optimize_infeasible_k () =
  let r =
    PO.optimize ~params ~tleft:25.0 ~recovering:false ~k:5
      ~continuation:no_continuation ()
  in
  Alcotest.(check (list (float 0.0))) "no plan" [] r.PO.offsets;
  close "zero value" 0.0 r.PO.expected_work

let test_optimize_beats_equal_segments () =
  (* The optimised plan can never do worse than the equal-segment start
     (the optimiser keeps the best of both). *)
  List.iter
    (fun k ->
      let equal =
        List.init k (fun i -> 450.0 *. float_of_int (i + 1) /. float_of_int k)
      in
      let equal_value =
        PO.expected_work ~params ~tleft:450.0 ~recovering:false
          ~continuation:no_continuation ~offsets:equal
      in
      let r =
        PO.optimize ~params ~tleft:450.0 ~recovering:false ~k
          ~continuation:no_continuation ()
      in
      Alcotest.(check bool)
        (Printf.sprintf "k=%d: %.4f >= %.4f" k r.PO.expected_work equal_value)
        true
        (r.PO.expected_work >= equal_value -. 1e-9))
    [ 1; 2; 3; 4 ]

let test_variable_segments_policy () =
  (* VariableSegments must emit valid plans and, evaluated exactly,
     land between NumericalOptimum and the quantised optimum (allowing
     noise from quadrature and the optimiser). *)
  let params = P.paper ~lambda:0.01 ~c:20.0 ~d:0.0 in
  let horizon = 300.0 in
  let opt = Core.Optimal.build ~params ~quantum:1.0 ~horizon () in
  let policy = PO.variable_segments_policy ~params ~horizon ~opt in
  List.iter
    (fun (tleft, recovering) ->
      Sim.Policy.validate_plan ~params ~tleft ~recovering
        (Plans.buffer policy ~tleft ~recovering))
    [ (300.0, false); (299.5, true); (100.0, false); (45.0, true); (10.0, false) ];
  let value p = Core.Expected.policy_value ~params ~quantum:1.0 ~horizon ~policy:p in
  let vs = value policy in
  let dp_v = Core.Optimal.value opt ~tleft:horizon in
  let no_v = value (Core.Policies.numerical_optimum ~params ~horizon) in
  Alcotest.(check bool)
    (Printf.sprintf "NO %.3f <= VS %.3f <= DP %.3f (with slack)" no_v vs dp_v)
    true
    (vs >= no_v -. 0.5 && vs <= dp_v +. 0.5)

let () =
  Alcotest.run "plan_opt"
    [
      ( "objective",
        [
          Alcotest.test_case "matches first-failure value" `Quick
            test_objective_matches_first_failure_value;
          Alcotest.test_case "with recovery" `Quick test_objective_with_recovery;
          Alcotest.test_case "empty plan" `Quick test_empty_plan;
        ] );
      ( "optimiser",
        [
          Alcotest.test_case "two checkpoints vs alpha_opt" `Quick
            test_optimize_two_matches_alpha_opt;
          Alcotest.test_case "early checkpoint under heavy failures" `Quick
            test_optimize_single_checkpoint_heavy_failures;
          Alcotest.test_case "feasibility" `Quick test_optimize_respects_feasibility;
          Alcotest.test_case "infeasible k" `Quick test_optimize_infeasible_k;
          Alcotest.test_case "never below equal segments" `Quick
            test_optimize_beats_equal_segments;
        ] );
      ( "policy",
        [
          Alcotest.test_case "VariableSegments" `Slow test_variable_segments_policy;
        ] );
    ]
