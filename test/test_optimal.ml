(* Tests for Core.Optimal, the unrestricted quantised optimum, and its
   relationship with the paper's k-indexed dynamic program. *)

module O = Core.Optimal
module Dp = Core.Dp
module P = Fault.Params

let close ?(eps = 1e-9) = Alcotest.(check (float eps))

let params = P.paper ~lambda:0.002 ~c:10.0 ~d:5.0

let test_matches_k_indexed_dp () =
  (* The headline: tracking the planned number of checkpoints (and
     restricting re-planning to fewer) does not change the optimum. *)
  List.iter
    (fun (lambda, c, d, horizon) ->
      let params = P.paper ~lambda ~c ~d in
      let opt = O.build ~params ~quantum:1.0 ~horizon () in
      let dp = Dp.build ~params ~quantum:1.0 ~horizon () in
      for n = 1 to O.horizon_quanta opt do
        let v = O.value_q opt ~n ~delta:false in
        let e = Dp.best_expected_work_q dp ~n ~delta:false in
        if abs_float (v -. e) > 1e-9 then
          Alcotest.failf "λ=%g C=%g D=%g n=%d: unrestricted %g vs DP %g" lambda
            c d n v e
      done)
    [
      (0.002, 10.0, 5.0, 300.0);
      (0.01, 5.0, 0.0, 150.0);
      (0.05, 4.0, 2.0, 60.0);
      (0.001, 20.0, 0.0, 400.0);
    ]

let test_never_below_dp () =
  (* Even with recovery starts (where the restriction could in principle
     bind), the unrestricted value dominates. *)
  let horizon = 400.0 in
  let opt = O.build ~params ~quantum:1.0 ~horizon () in
  let dp = Dp.build ~params ~quantum:1.0 ~horizon () in
  for n = 1 to 400 do
    let v = O.value_q opt ~n ~delta:true in
    let e = Dp.best_expected_work_q dp ~n ~delta:true in
    if v < e -. 1e-9 then
      Alcotest.failf "n=%d: unrestricted %g below restricted %g" n v e
  done

let test_value_policy_consistency () =
  let horizon = 350.0 in
  let opt = O.build ~params ~quantum:1.0 ~horizon () in
  let v = O.value opt ~tleft:horizon in
  let by_eval =
    Core.Expected.policy_value ~params ~quantum:1.0 ~horizon
      ~policy:(O.policy opt)
  in
  close ~eps:1e-6 "value = policy evaluator" v by_eval

let test_plan_shape () =
  let horizon = 500.0 in
  let opt = O.build ~params ~quantum:1.0 ~horizon () in
  let plan = O.plan_q opt ~n:500 ~delta:false in
  Alcotest.(check bool) "non-empty" true (plan <> []);
  let rec increasing prev = function
    | [] -> true
    | q :: rest -> q > prev && increasing q rest
  in
  Alcotest.(check bool) "increasing within horizon" true
    (increasing 0 plan && List.for_all (fun q -> q <= 500) plan)

let test_policy_valid_plans () =
  let horizon = 500.0 in
  let opt = O.build ~params ~quantum:1.0 ~horizon () in
  let policy = O.policy opt in
  List.iter
    (fun (tleft, recovering) ->
      Sim.Policy.validate_plan ~params ~tleft ~recovering
        (Plans.buffer policy ~tleft ~recovering))
    [ (500.0, false); (500.0, true); (77.3, true); (12.0, false); (5.0, true) ]

let test_policy_stateless_replay () =
  (* Unlike the DP policy, the unrestricted policy carries no state:
     the same query always returns the same plan. *)
  let horizon = 300.0 in
  let opt = O.build ~params ~quantum:1.0 ~horizon () in
  let policy = O.policy opt in
  let p1 = Plans.of_policy policy ~tleft:222.0 ~recovering:true in
  let p2 = Plans.of_policy policy ~tleft:222.0 ~recovering:true in
  Alcotest.(check (list (float 0.0))) "same plan" p1 p2

let test_monte_carlo_agreement () =
  let horizon = 400.0 in
  let opt = O.build ~params ~quantum:1.0 ~horizon () in
  let traces =
    Fault.Trace.batch
      ~dist:(Fault.Trace.Exponential { rate = params.P.lambda })
      ~seed:321L ~n:40_000
  in
  let r = Sim.Runner.evaluate ~params ~horizon ~policy:(O.policy opt) traces in
  let ci =
    r.Sim.Runner.proportion.Numerics.Stats.ci95_half_width
    *. (horizon -. params.P.c)
  in
  let v = O.value opt ~tleft:horizon in
  Alcotest.(check bool)
    (Printf.sprintf "V %.2f vs MC %.2f ± %.2f" v r.Sim.Runner.mean_work ci)
    true
    (abs_float (v -. r.Sim.Runner.mean_work) < ci +. 2.0)

let test_validation () =
  List.iter
    (fun (quantum, horizon) ->
      match O.build ~params ~quantum ~horizon () with
      | _ -> Alcotest.failf "quantum %g, horizon %g accepted" quantum horizon
      | exception Invalid_argument _ -> ())
    [
      (-1.0, 10.0);
      (Float.nan, 10.0);
      (Float.infinity, 10.0);
      (1e-300, 10.0);
      (1.0, Float.nan);
      (1.0, Float.infinity);
    ]

let () =
  Alcotest.run "optimal"
    [
      ( "vs the paper's DP",
        [
          Alcotest.test_case "k-tracking is not restrictive" `Slow
            test_matches_k_indexed_dp;
          Alcotest.test_case "dominates with recovery starts" `Quick
            test_never_below_dp;
        ] );
      ( "consistency",
        [
          Alcotest.test_case "value = policy evaluator" `Quick
            test_value_policy_consistency;
          Alcotest.test_case "plan shape" `Quick test_plan_shape;
          Alcotest.test_case "valid plans" `Quick test_policy_valid_plans;
          Alcotest.test_case "stateless replay" `Quick test_policy_stateless_replay;
          Alcotest.test_case "Monte-Carlo agreement" `Slow test_monte_carlo_agreement;
          Alcotest.test_case "validation" `Quick test_validation;
        ] );
    ]
