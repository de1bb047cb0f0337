(* Tests for Core.Model: fixed-work closed forms against both known
   values and direct Monte-Carlo simulation of the fixed-work process. *)

module M = Core.Model
module P = Fault.Params

let close ?(eps = 1e-9) = Alcotest.(check (float eps))

let test_young_daly_value () =
  (* λ=0.001, C=20: W_YD = sqrt(2 * 1000 * 20) = 200. *)
  let p = P.paper ~lambda:0.001 ~c:20.0 ~d:0.0 in
  close "W_YD" 200.0 (M.young_daly_period p)

let test_young_daly_scaling () =
  (* W_YD scales as sqrt(C) and as sqrt(mu). *)
  let p1 = P.paper ~lambda:0.001 ~c:10.0 ~d:0.0 in
  let p2 = P.paper ~lambda:0.001 ~c:40.0 ~d:0.0 in
  close ~eps:1e-9 "sqrt(C) scaling" 2.0
    (M.young_daly_period p2 /. M.young_daly_period p1);
  let p3 = P.paper ~lambda:0.004 ~c:10.0 ~d:0.0 in
  close ~eps:1e-9 "sqrt(mu) scaling" 2.0
    (M.young_daly_period p1 /. M.young_daly_period p3)

let test_daly_second_order () =
  let p = P.paper ~lambda:0.001 ~c:20.0 ~d:0.0 in
  (* W = 200 (1 + sqrt(0.01)/3 + 0.01/9) - 20 *)
  let expected = (200.0 *. (1.0 +. (0.1 /. 3.0) +. (0.01 /. 9.0))) -. 20.0 in
  close ~eps:1e-9 "second order" expected (M.daly_second_order_period p);
  (* degenerate regime: C >= 2 mu *)
  let p_bad = P.paper ~lambda:1.0 ~c:5.0 ~d:0.0 in
  close "degenerate = mu" 1.0 (M.daly_second_order_period p_bad)

let test_optimal_period_stationarity () =
  (* The Lambert-form period must be a stationary point of the
     per-work expected time. *)
  let p = P.paper ~lambda:0.002 ~c:30.0 ~d:4.0 in
  let w = M.optimal_period p in
  let h w = M.expected_time_per_work p ~w in
  let eps = 1e-4 *. w in
  Alcotest.(check bool) "local minimum" true
    (h w <= h (w +. eps) && h w <= h (w -. eps))

let test_optimal_period_approaches_young_daly () =
  (* As λ -> 0 the exact optimum converges to the Young/Daly value. *)
  let ratio lambda =
    let p = P.paper ~lambda ~c:10.0 ~d:0.0 in
    M.optimal_period p /. M.young_daly_period p
  in
  Alcotest.(check bool) "ratio -> 1 monotonically" true
    (abs_float (ratio 1e-6 -. 1.0) < abs_float (ratio 1e-3 -. 1.0));
  close ~eps:1e-3 "ratio at tiny lambda" 1.0 (ratio 1e-8)

let test_expected_time_zero_work () =
  (* W = 0 still pays for the checkpoint. *)
  let p = P.paper ~lambda:0.01 ~c:10.0 ~d:0.0 in
  let expected = 100.0 *. exp (0.01 *. 10.0) *. expm1 (0.01 *. 10.0) in
  close ~eps:1e-9 "E(0)" expected (M.expected_time_fixed_work p ~w:0.0)

(* Direct Monte-Carlo of the fixed-work process: execute W + C with
   restart-from-scratch after failures (failures can strike during
   recovery, not during downtime), and compare to the closed form. *)
let simulate_fixed_work p ~w ~seed ~reps =
  let open P in
  let rng = Numerics.Rng.create ~seed in
  let total = ref 0.0 in
  for _ = 1 to reps do
    (* first attempt has no recovery *)
    let rec attempt ~elapsed ~need =
      let iat = Numerics.Rng.exponential rng ~rate:p.lambda in
      if iat >= need then elapsed +. need
      else attempt ~elapsed:(elapsed +. iat +. p.d) ~need:(p.r +. w +. p.c)
    in
    total := !total +. attempt ~elapsed:0.0 ~need:(w +. p.c)
  done;
  !total /. float_of_int reps

let test_expected_time_vs_simulation () =
  let p = P.make ~lambda:0.01 ~c:10.0 ~r:6.0 ~d:3.0 in
  let w = 80.0 in
  let analytic = M.expected_time_fixed_work p ~w in
  let simulated = simulate_fixed_work p ~w ~seed:99L ~reps:200_000 in
  Alcotest.(check bool)
    (Printf.sprintf "analytic %.2f vs simulated %.2f within 1%%" analytic
       simulated)
    true
    (abs_float (analytic -. simulated) /. analytic < 0.01)

let test_expected_lost_time () =
  let p = P.paper ~lambda:0.01 ~c:1.0 ~d:0.0 in
  (* small x: E(lost | failure in x) -> x/2 *)
  close ~eps:1e-4 "short attempt loses half" 0.05 (M.expected_lost_time p ~x:0.1);
  (* large x: -> MTBF *)
  close ~eps:1.0 "long attempt loses ~MTBF" 100.0 (M.expected_lost_time p ~x:10_000.0);
  close "zero x" 0.0 (M.expected_lost_time p ~x:0.0)

let test_checkpoint_count () =
  let p = P.paper ~lambda:0.001 ~c:20.0 ~d:0.0 in
  (* W_YD = 200, stride 220. *)
  Alcotest.(check int) "too short" 0 (M.checkpoint_count_young_daly p ~horizon:15.0);
  Alcotest.(check int) "single" 1 (M.checkpoint_count_young_daly p ~horizon:100.0);
  Alcotest.(check int) "short means one" 1
    (M.checkpoint_count_young_daly p ~horizon:240.0);
  Alcotest.(check int) "two fit" 2 (M.checkpoint_count_young_daly p ~horizon:460.0);
  (* count must agree with the actual policy plan in a failure-free run *)
  List.iter
    (fun horizon ->
      let policy = Core.Policies.young_daly ~params:p in
      let plan = Plans.of_policy policy ~tleft:horizon ~recovering:false in
      Alcotest.(check int)
        (Printf.sprintf "plan length at %g" horizon)
        (M.checkpoint_count_young_daly p ~horizon)
        (List.length plan))
    [ 15.0; 100.0; 240.0; 460.0; 500.0; 1000.0; 1999.0 ]

let test_invalid () =
  let p = P.paper ~lambda:0.01 ~c:1.0 ~d:0.0 in
  Alcotest.check_raises "negative work"
    (Invalid_argument "Model.expected_time_fixed_work: negative work")
    (fun () -> ignore (M.expected_time_fixed_work p ~w:(-1.0)));
  Alcotest.check_raises "per-work at 0"
    (Invalid_argument "Model.expected_time_per_work: w <= 0") (fun () ->
      ignore (M.expected_time_per_work p ~w:0.0))

let qcheck_tests =
  let params_arb =
    QCheck.make
      QCheck.Gen.(
        let* lambda = float_range 1e-5 0.02 in
        let* c = float_range 1.0 100.0 in
        let* d = float_range 0.0 10.0 in
        return (P.paper ~lambda ~c ~d))
      ~print:P.to_string
  in
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"expected time increases with work" ~count:500
         params_arb (fun p ->
           M.expected_time_fixed_work p ~w:50.0
           < M.expected_time_fixed_work p ~w:51.0));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"optimal period beats neighbours" ~count:500
         params_arb (fun p ->
           let w = M.optimal_period p in
           let h w = M.expected_time_per_work p ~w in
           h w <= h (w *. 1.05) +. 1e-9 && h w <= h (w *. 0.95) +. 1e-9));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"optimal period below Young/Daly" ~count:500
         params_arb (fun p ->
           (* The exact optimum is always smaller than the first-order
              Young/Daly approximation. *)
           M.optimal_period p <= M.young_daly_period p +. 1e-9));
  ]

let () =
  Alcotest.run "model"
    [
      ( "young-daly",
        [
          Alcotest.test_case "known value" `Quick test_young_daly_value;
          Alcotest.test_case "scaling laws" `Quick test_young_daly_scaling;
          Alcotest.test_case "second order" `Quick test_daly_second_order;
        ] );
      ( "optimal period",
        [
          Alcotest.test_case "stationarity" `Quick test_optimal_period_stationarity;
          Alcotest.test_case "Young/Daly limit" `Quick
            test_optimal_period_approaches_young_daly;
        ] );
      ( "fixed-work expectation",
        [
          Alcotest.test_case "zero work" `Quick test_expected_time_zero_work;
          Alcotest.test_case "matches simulation" `Slow
            test_expected_time_vs_simulation;
          Alcotest.test_case "expected lost time" `Quick test_expected_lost_time;
        ] );
      ( "checkpoint counts",
        [
          Alcotest.test_case "Young/Daly counts" `Quick test_checkpoint_count;
          Alcotest.test_case "invalid inputs" `Quick test_invalid;
        ] );
      ("properties", qcheck_tests);
    ]
