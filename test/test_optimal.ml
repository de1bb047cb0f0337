(* Tests for Core.Optimal, the unrestricted quantised optimum, and its
   relationship with the paper's k-indexed dynamic program. *)

module O = Core.Optimal
module Dp = Core.Dp
module P = Fault.Params

let close ?(eps = 1e-9) = Alcotest.(check (float eps))

let params = P.paper ~lambda:0.002 ~c:10.0 ~d:5.0

(* The headline: tracking the planned number of checkpoints (and
   restricting re-planning to fewer) does not change the optimum, to the
   last bit. Every (params, quantum, horizon) table a figure's DP-backed
   strategy builds — each sub-plot's warm-up point, at the registry's
   suggested kmax — must give [Dp.best_expected_work_q] and
   [Optimal.value_q] equal bits at both δ and every n, and the same
   failure-free plan from [Dp.best_k]. *)
let figure_configs ids =
  let module St = Experiments.Strategy in
  List.concat_map
    (fun id ->
      match Experiments.Figures.find id with
      | None -> Alcotest.failf "figure %s missing" id
      | Some spec ->
          List.concat_map
            (fun (wp : St.warm_point) ->
              List.concat_map
                (fun s ->
                  List.filter_map
                    (function
                      | St.Cache.Dp { quantum } | St.Cache.Optimal { quantum }
                        ->
                          Some (wp.St.wp_params, quantum, wp.St.wp_horizon)
                      | _ -> None)
                    (St.requires ~dist:wp.St.wp_dist s))
                wp.St.wp_strategies)
            (St.warm_points_of_spec spec))
    ids
  |> List.sort_uniq compare

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let check_same_bits (params, quantum, horizon) =
  let kmax = Dp.suggested_kmax ~params ~horizon in
  let dp = Dp.build ~kmax ~params ~quantum ~horizon () in
  let opt = O.build ~params ~quantum ~horizon () in
  let where n delta =
    Printf.sprintf "%s u=%g T=%g n=%d delta=%b" (P.to_string params) quantum
      horizon n delta
  in
  for n = 0 to O.horizon_quanta opt do
    List.iter
      (fun delta ->
        let v = O.value_q opt ~n ~delta in
        let e = Dp.best_expected_work_q dp ~n ~delta in
        if not (same_bits v e) then
          Alcotest.failf "%s: k-free %h vs k-indexed %h" (where n delta) v e;
        let k = Dp.best_k dp ~n ~delta in
        let want = if k = 0 then [] else Dp.plan_q dp ~n ~k ~delta in
        if O.plan_q opt ~n ~delta <> want then
          Alcotest.failf "%s: plans differ (best k = %d)" (where n delta) k)
      [ false; true ]
  done

let quick_figures = [ "fig2"; "fig3"; "fig6" ]

let test_same_bits_quick () =
  List.iter check_same_bits (figure_configs quick_figures)

let test_same_bits_rest () =
  let quick = figure_configs quick_figures in
  List.iter
    (fun config -> if not (List.mem config quick) then check_same_bits config)
    (figure_configs Experiments.Figures.ids)

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
          Alcotest.test_case "k-tracking is not restrictive" `Quick
            test_same_bits_quick;
          Alcotest.test_case "k-tracking, other figures" `Slow
            test_same_bits_rest;
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
