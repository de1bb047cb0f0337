(* Tests for Core.Policies: naming, composition, and the behaviour of
   the assembled paper strategies. *)

module Po = Core.Policies
module P = Fault.Params
module Th = Core.Threshold

let params = P.paper ~lambda:0.001 ~c:20.0 ~d:0.0
let offsets = Alcotest.(list (float 1e-9))

let test_names () =
  Alcotest.(check string) "young daly" "YoungDaly"
    (Po.young_daly ~params).Sim.Policy.name;
  Alcotest.(check string) "daly2" "DalySecondOrder"
    (Po.daly_second_order ~params).Sim.Policy.name;
  Alcotest.(check string) "lambert" "LambertPeriod"
    (Po.lambert_optimal_period ~params).Sim.Policy.name;
  Alcotest.(check string) "fo" "FirstOrder"
    (Po.first_order ~params ~horizon:500.0).Sim.Policy.name;
  Alcotest.(check string) "no" "NumericalOptimum"
    (Po.numerical_optimum ~params ~horizon:500.0).Sim.Policy.name

let test_all_paper_roster () =
  let names =
    List.map
      (fun p -> p.Sim.Policy.name)
      (Po.all_paper ~params ~quantum:1.0 ~horizon:400.0)
  in
  Alcotest.(check (list string)) "paper order"
    [ "YoungDaly"; "FirstOrder"; "NumericalOptimum"; "DynamicProgramming" ]
    names

let test_young_daly_period_in_plan () =
  (* First checkpoint of a long fresh plan completes at W_YD + C. *)
  let policy = Po.young_daly ~params in
  match Plans.of_policy policy ~tleft:2000.0 ~recovering:false with
  | first :: _ ->
      Alcotest.(check (float 1e-9)) "W_YD + C" 220.0 first
  | [] -> Alcotest.fail "empty plan"

let test_threshold_policy_counts () =
  (* The threshold policy must plan exactly segments_for(span) equal
     segments. *)
  let table = Th.table_numerical ~params ~up_to:2000.0 in
  let policy = Po.of_threshold_table ~name:"x" ~params table in
  List.iter
    (fun tleft ->
      let expected = Th.segments_for table ~tleft in
      let plan = Plans.of_policy policy ~tleft ~recovering:false in
      Alcotest.(check int)
        (Printf.sprintf "count at %g" tleft)
        expected (List.length plan);
      (* equal spacing *)
      match plan with
      | [] -> Alcotest.fail "no plan for feasible tleft"
      | first :: _ ->
          let seg = tleft /. float_of_int expected in
          Alcotest.(check (float 1e-6)) "equal segments" seg first)
    [ 100.0; 400.0; 700.0; 1500.0; 1999.0 ]

let test_threshold_policy_recovery_span () =
  (* With a pending recovery, the threshold is applied to the usable
     span (tleft - R) and segments shift accordingly. *)
  let table = Th.table_numerical ~params ~up_to:2000.0 in
  let policy = Po.of_threshold_table ~name:"x" ~params table in
  let tleft = 500.0 in
  let span = tleft -. params.P.r in
  let expected = Th.segments_for table ~tleft:span in
  let plan = Plans.of_policy policy ~tleft ~recovering:true in
  Alcotest.(check int) "count from span" expected (List.length plan);
  (match plan with
  | first :: _ ->
      Alcotest.(check (float 1e-6)) "offset includes recovery"
        (params.P.r +. (span /. float_of_int expected))
        first
  | [] -> Alcotest.fail "no plan");
  Sim.Policy.validate_plan ~params ~tleft ~recovering:true
    (Plans.of_list plan)

let test_threshold_policy_short () =
  let table = Th.table_numerical ~params ~up_to:2000.0 in
  let policy = Po.of_threshold_table ~name:"x" ~params table in
  Alcotest.(check offsets) "too short" []
    (Plans.of_policy policy ~tleft:30.0 ~recovering:true);
  Alcotest.(check offsets) "single final" [ 30.0 ]
    (Plans.of_policy policy ~tleft:30.0 ~recovering:false)

let test_first_order_switches_at_t2 () =
  let policy = Po.first_order ~params ~horizon:2000.0 in
  let t2 = Th.threshold_first_order ~params ~n:1 in
  Alcotest.(check int) "one below" 1
    (List.length (Plans.of_policy policy ~tleft:(t2 -. 5.0) ~recovering:false));
  Alcotest.(check int) "two above" 2
    (List.length (Plans.of_policy policy ~tleft:(t2 +. 5.0) ~recovering:false))

let test_periods_ordering () =
  (* Lambert-exact < Young/Daly; Daly's second-order estimate sits next
     to the exact value (no guaranteed side), far from Young/Daly. *)
  let wyd = Core.Model.young_daly_period params in
  let daly2 = Core.Model.daly_second_order_period params in
  let lambert = Core.Model.optimal_period params in
  Alcotest.(check bool)
    (Printf.sprintf "lambert %.2f < wyd %.2f" lambert wyd)
    true (lambert < wyd);
  Alcotest.(check bool)
    (Printf.sprintf "daly2 %.2f within 1%% of lambert %.2f" daly2 lambert)
    true
    (abs_float (daly2 -. lambert) /. lambert < 0.01)

let test_dynamic_programming_smoke () =
  let policy =
    Po.dynamic_programming ~params ~quantum:2.0 ~horizon:300.0
  in
  Alcotest.(check string) "name" "DynamicProgramming" policy.Sim.Policy.name;
  let plan = Plans.of_policy policy ~tleft:300.0 ~recovering:false in
  Sim.Policy.validate_plan ~params ~tleft:300.0 ~recovering:false
    (Plans.of_list plan);
  (* all offsets on the u = 2 grid *)
  List.iter
    (fun off ->
      let q = off /. 2.0 in
      Alcotest.(check (float 1e-9)) "on the quantum grid" (Float.round q) q)
    plan

let qcheck_tests =
  let arb =
    QCheck.make
      QCheck.Gen.(
        let* lambda = float_range 1e-4 0.02 in
        let* c = float_range 2.0 60.0 in
        let* tleft = float_range 1.0 2000.0 in
        let* recovering = bool in
        return (P.paper ~lambda ~c ~d:0.0, tleft, recovering))
      ~print:(fun (p, tleft, r) ->
        Printf.sprintf "%s tleft=%g rec=%b" (P.to_string p) tleft r)
  in
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"threshold policies always emit valid plans"
         ~count:300 arb (fun (params, tleft, recovering) ->
           let policy = Po.numerical_optimum ~params ~horizon:2000.0 in
           match
             Sim.Policy.validate_plan ~params ~tleft ~recovering
               (Plans.buffer policy ~tleft ~recovering)
           with
           | () -> true
           | exception Invalid_argument msg ->
               QCheck.Test.fail_reportf "invalid: %s" msg));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"young_daly always emits valid plans" ~count:300
         arb (fun (params, tleft, recovering) ->
           let policy = Po.young_daly ~params in
           match
             Sim.Policy.validate_plan ~params ~tleft ~recovering
               (Plans.buffer policy ~tleft ~recovering)
           with
           | () -> true
           | exception Invalid_argument msg ->
               QCheck.Test.fail_reportf "invalid: %s" msg));
  ]

let () =
  Alcotest.run "policies"
    [
      ( "composition",
        [
          Alcotest.test_case "names" `Quick test_names;
          Alcotest.test_case "paper roster" `Quick test_all_paper_roster;
          Alcotest.test_case "DP smoke (u=2)" `Quick test_dynamic_programming_smoke;
          Alcotest.test_case "Young/Daly first checkpoint" `Quick
            test_young_daly_period_in_plan;
        ] );
      ( "threshold policies",
        [
          Alcotest.test_case "segment counts" `Quick test_threshold_policy_counts;
          Alcotest.test_case "recovery span" `Quick
            test_threshold_policy_recovery_span;
          Alcotest.test_case "short reservations" `Quick test_threshold_policy_short;
          Alcotest.test_case "first-order switch at T2" `Quick
            test_first_order_switches_at_t2;
        ] );
      ( "periods",
        [ Alcotest.test_case "orderings" `Quick test_periods_ordering ] );
      ("properties", qcheck_tests);
    ]
