(* Tests for Core.Dp_renewal: the renewal-aware optimum.

   Key validations:
   - with exponential IATs the age must be irrelevant and the module
     must coincide exactly with Core.Optimal;
   - on Weibull traces, the renewal policy's simulated mean must match
     its own value tables (the trace semantics and the DP model are the
     same process) and dominate the exponential-derived optimum. *)

module R = Core.Dp_renewal
module O = Core.Optimal
module P = Fault.Params
module T = Fault.Trace

let close ?(eps = 1e-9) = Alcotest.(check (float eps))

let params = P.paper ~lambda:0.005 ~c:10.0 ~d:5.0
let exp_dist = T.Exponential { rate = 0.005 }

let test_exponential_reduces_to_optimal () =
  let horizon = 250.0 in
  let renewal = R.build ~params ~dist:exp_dist ~quantum:1.0 ~horizon () in
  let optimal = O.build ~params ~quantum:1.0 ~horizon () in
  for n = 1 to 250 do
    close ~eps:1e-9
      (Printf.sprintf "V(%d, 0)" n)
      (O.value_q optimal ~n ~delta:false)
      (R.value_q renewal ~n ~age:0)
  done

let test_exponential_age_irrelevant () =
  let horizon = 200.0 in
  let renewal = R.build ~params ~dist:exp_dist ~quantum:1.0 ~horizon () in
  (* memorylessness: V(n, a) must not depend on a *)
  List.iter
    (fun n ->
      let base = R.value_q renewal ~n ~age:0 in
      for age = 1 to 200 - n do
        let v = R.value_q renewal ~n ~age in
        if abs_float (v -. base) > 1e-9 then
          Alcotest.failf "V(%d, %d) = %g differs from V(%d, 0) = %g" n age v n
            base
      done)
    [ 20; 75; 130 ]

let test_weibull_age_matters () =
  (* Decreasing hazard (k < 1): a node that just failed is MORE likely
     to fail again soon, so the value right after a failure (age 0) is
     lower than with an aged node. *)
  let dist = T.weibull_with_mtbf ~shape:0.7 ~mtbf:200.0 in
  let renewal = R.build ~params ~dist ~quantum:1.0 ~horizon:250.0 () in
  let young = R.value_q renewal ~n:100 ~age:0 in
  let old_ = R.value_q renewal ~n:100 ~age:150 in
  Alcotest.(check bool)
    (Printf.sprintf "V(100, 150) = %.2f > V(100, 0) = %.2f" old_ young)
    true (old_ > young)

let test_plans_valid () =
  let dist = T.weibull_with_mtbf ~shape:0.7 ~mtbf:200.0 in
  let renewal = R.build ~params ~dist ~quantum:1.0 ~horizon:300.0 () in
  let policy = R.policy renewal in
  List.iter
    (fun (tleft, recovering) ->
      Sim.Policy.validate_plan ~params ~tleft ~recovering
        (Plans.buffer policy ~tleft ~recovering))
    [ (300.0, false); (300.0, true); (123.0, true); (40.0, false); (9.0, true) ]

let mc_mean ~dist ~policy ~horizon ~n =
  let traces = T.batch ~dist ~seed:4242L ~n in
  let r = Sim.Runner.evaluate ~params ~horizon ~policy traces in
  ( r.Sim.Runner.mean_work,
    r.Sim.Runner.proportion.Numerics.Stats.ci95_half_width
    *. (horizon -. params.P.c) )

let test_weibull_value_matches_simulation () =
  (* The DP model and the trace semantics are the same renewal process,
     so the simulated mean must approach the table value (up to the
     quantisation of failure dates). *)
  let dist = T.weibull_with_mtbf ~shape:0.7 ~mtbf:200.0 in
  let horizon = 300.0 in
  let renewal = R.build ~params ~dist ~quantum:1.0 ~horizon () in
  let v = R.value renewal ~tleft:horizon in
  let mc, ci = mc_mean ~dist ~policy:(R.policy renewal) ~horizon ~n:40_000 in
  Alcotest.(check bool)
    (Printf.sprintf "V %.2f vs MC %.2f ± %.2f" v mc ci)
    true
    (abs_float (v -. mc) < ci +. 2.0)

let test_weibull_beats_exponential_dp () =
  (* On Weibull failures, the renewal-aware optimum must (weakly)
     dominate the exponential-derived optimum executed on the same
     traces. *)
  let dist = T.weibull_with_mtbf ~shape:0.7 ~mtbf:200.0 in
  let horizon = 300.0 in
  let renewal = R.build ~params ~dist ~quantum:1.0 ~horizon () in
  let optimal = O.build ~params ~quantum:1.0 ~horizon () in
  let mc_renewal, ci1 =
    mc_mean ~dist ~policy:(R.policy renewal) ~horizon ~n:40_000
  in
  let mc_exp, ci2 = mc_mean ~dist ~policy:(O.policy optimal) ~horizon ~n:40_000 in
  Alcotest.(check bool)
    (Printf.sprintf "renewal %.2f ± %.2f vs exponential-derived %.2f ± %.2f"
       mc_renewal ci1 mc_exp ci2)
    true
    (mc_renewal >= mc_exp -. ci1 -. ci2)

let test_lognormal_value_matches_simulation () =
  let dist = T.lognormal_with_mtbf ~sigma:1.2 ~mtbf:200.0 in
  let horizon = 250.0 in
  let renewal = R.build ~params ~dist ~quantum:1.0 ~horizon () in
  let v = R.value renewal ~tleft:horizon in
  let mc, ci = mc_mean ~dist ~policy:(R.policy renewal) ~horizon ~n:40_000 in
  Alcotest.(check bool)
    (Printf.sprintf "V %.2f vs MC %.2f ± %.2f" v mc ci)
    true
    (abs_float (v -. mc) < ci +. 2.0)

let test_lognormal_builds () =
  let dist = T.lognormal_with_mtbf ~sigma:1.2 ~mtbf:200.0 in
  let renewal = R.build ~params ~dist ~quantum:2.0 ~horizon:200.0 () in
  let v = R.value renewal ~tleft:200.0 in
  Alcotest.(check bool) "positive value" true (v > 0.0);
  Alcotest.(check bool) "below bound" true (v <= 190.0)

let test_validation () =
  List.iter
    (fun (quantum, horizon) ->
      match R.build ~params ~dist:exp_dist ~quantum ~horizon () with
      | _ -> Alcotest.failf "quantum %g, horizon %g accepted" quantum horizon
      | exception Invalid_argument _ -> ())
    [
      (0.0, 10.0);
      (Float.nan, 10.0);
      (Float.infinity, 10.0);
      (1e-300, 10.0);
      (1.0, Float.nan);
      (1.0, Float.infinity);
    ];
  let renewal = R.build ~params ~dist:exp_dist ~quantum:1.0 ~horizon:50.0 () in
  (match R.value_q renewal ~n:40 ~age:20 with
  | _ -> Alcotest.fail "outside triangle accepted"
  | exception Invalid_argument _ -> ());
  (match R.plan_q renewal ~n:30 ~age:5 ~delta:true with
  | _ -> Alcotest.fail "recovery at age > 0 accepted"
  | exception Invalid_argument _ -> ())

let () =
  Alcotest.run "dp_renewal"
    [
      ( "exponential sanity",
        [
          Alcotest.test_case "reduces to Optimal" `Quick
            test_exponential_reduces_to_optimal;
          Alcotest.test_case "age irrelevant" `Quick test_exponential_age_irrelevant;
        ] );
      ( "non-memoryless",
        [
          Alcotest.test_case "age matters for Weibull" `Quick
            test_weibull_age_matters;
          Alcotest.test_case "plans valid" `Quick test_plans_valid;
          Alcotest.test_case "value = simulation" `Slow
            test_weibull_value_matches_simulation;
          Alcotest.test_case "beats exponential-derived optimum" `Slow
            test_weibull_beats_exponential_dp;
          Alcotest.test_case "log-normal builds" `Quick test_lognormal_builds;
          Alcotest.test_case "log-normal value = simulation" `Slow
            test_lognormal_value_matches_simulation;
        ] );
      ("validation", [ Alcotest.test_case "errors" `Quick test_validation ]);
    ]
