(* Tests for Core.Slack: the policy transformer, the Erlang CDF, and the
   headline claim — slack recovers the DP's lead under stochastic
   checkpoint durations. *)

module S = Core.Slack
module P = Fault.Params

let close ?(eps = 1e-9) = Alcotest.(check (float eps))
let offsets = Alcotest.(list (float 1e-9))

let params = P.paper ~lambda:0.002 ~c:20.0 ~d:0.0

(* with_slack *)

let test_with_slack_shifts_final () =
  let base = Sim.Policy.equal_segments ~params ~count:3 in
  let slacked = S.with_slack ~params ~slack:7.0 base in
  Alcotest.(check offsets) "only the final checkpoint moves"
    [ 100.0; 200.0; 293.0 ]
    (Plans.of_policy slacked ~tleft:300.0 ~recovering:false)

let test_with_slack_zero_identity () =
  let base = Core.Policies.young_daly ~params in
  let slacked = S.with_slack ~params ~slack:0.0 base in
  Alcotest.(check offsets) "identity"
    (Plans.of_policy base ~tleft:777.0 ~recovering:false)
    (Plans.of_policy slacked ~tleft:777.0 ~recovering:false)

let test_with_slack_clamped () =
  (* Huge slack: the final checkpoint clamps against its predecessor
     plus C, never producing an invalid plan. *)
  let base = Sim.Policy.equal_segments ~params ~count:2 in
  let slacked = S.with_slack ~params ~slack:1.0e6 base in
  let plan = Plans.of_policy slacked ~tleft:100.0 ~recovering:false in
  Sim.Policy.validate_plan ~params ~tleft:100.0 ~recovering:false
    (Plans.of_list plan);
  Alcotest.(check offsets) "clamped to prev + C" [ 50.0; 70.0 ] plan

let test_with_slack_single_checkpoint () =
  let base = Sim.Policy.single_final ~params in
  let slacked = S.with_slack ~params ~slack:10.0 base in
  Alcotest.(check offsets) "shifted single" [ 90.0 ]
    (Plans.of_policy slacked ~tleft:100.0 ~recovering:false);
  (* with recovery the base is r + c *)
  Sim.Policy.validate_plan ~params ~tleft:45.0 ~recovering:true
    (Plans.buffer slacked ~tleft:45.0 ~recovering:true)

let test_with_slack_validation () =
  (match S.with_slack ~params ~slack:(-1.0) Sim.Policy.no_checkpoint with
  | _ -> Alcotest.fail "negative slack accepted"
  | exception Invalid_argument _ -> ())

let qcheck_valid_plans =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"slacked plans stay valid" ~count:1000
       QCheck.(triple (float_range 1.0 2000.0) bool (float_range 0.0 100.0))
       (fun (tleft, recovering, slack) ->
         let base = Core.Policies.numerical_optimum ~params ~horizon:2000.0 in
         let slacked = S.with_slack ~params ~slack base in
         match
           Sim.Policy.validate_plan ~params ~tleft ~recovering
             (Plans.buffer slacked ~tleft ~recovering)
         with
         | () -> true
         | exception Invalid_argument msg ->
             QCheck.Test.fail_reportf "invalid: %s" msg))

(* erlang_cdf *)

let test_erlang_cdf_shape1_is_exponential () =
  List.iter
    (fun x ->
      close ~eps:1e-12
        (Printf.sprintf "x = %g" x)
        (1.0 -. exp (-.x /. 20.0))
        (S.erlang_cdf ~shape:1 ~mean:20.0 x))
    [ 0.5; 5.0; 20.0; 100.0 ]

let test_erlang_cdf_properties () =
  close "zero at 0" 0.0 (S.erlang_cdf ~shape:4 ~mean:20.0 0.0);
  close ~eps:1e-9 "1 far out" 1.0 (S.erlang_cdf ~shape:4 ~mean:20.0 1000.0);
  (* median below mean for right-skewed Erlang *)
  Alcotest.(check bool) "F(mean) > 1/2" true
    (S.erlang_cdf ~shape:4 ~mean:20.0 20.0 > 0.5);
  (* monotone *)
  Alcotest.(check bool) "monotone" true
    (S.erlang_cdf ~shape:4 ~mean:20.0 15.0 < S.erlang_cdf ~shape:4 ~mean:20.0 25.0)

let test_erlang_cdf_vs_sampling () =
  let shape = 4 and mean = 20.0 in
  let rng = Numerics.Rng.create ~seed:5L in
  let n = 100_000 in
  let x = 23.0 in
  let hits = ref 0 in
  for _ = 1 to n do
    if
      Numerics.Rng.gamma_int rng ~shape ~scale:(mean /. float_of_int shape) <= x
    then incr hits
  done;
  close ~eps:5e-3 "matches empirical"
    (float_of_int !hits /. float_of_int n)
    (S.erlang_cdf ~shape ~mean x)

(* first-order slack *)

let test_first_order_slack_positive () =
  let s = S.first_order_slack ~params ~shape:4 ~tleft:600.0 in
  Alcotest.(check bool) (Printf.sprintf "slack %.2f in (0, C]" s) true
    (s > 0.0 && s <= 2.0 *. params.P.c)

let test_first_order_slack_degenerate () =
  close "no room, no slack" 0.0
    (S.first_order_slack ~params ~shape:4 ~tleft:params.P.c)

(* the headline: slack recovers the stochastic-checkpoint loss *)

let test_slack_recovers_dp_lead () =
  let horizon = 600.0 in
  let dp_tables = Core.Dp.build ~params ~quantum:1.0 ~horizon () in
  let traces =
    Fault.Trace.batch
      ~dist:(Fault.Trace.Exponential { rate = params.P.lambda })
      ~seed:99L ~n:6000
  in
  let fresh_sampler () =
    let rng = Numerics.Rng.create ~seed:31L in
    fun () -> Numerics.Rng.gamma_int rng ~shape:4 ~scale:(params.P.c /. 4.0)
  in
  let mean policy =
    (Sim.Runner.evaluate ~ckpt_sampler:(fresh_sampler ()) ~params ~horizon
       ~policy traces)
      .Sim.Runner.proportion.Numerics.Stats.mean
  in
  let plain = mean (Core.Dp.policy dp_tables) in
  let slack = S.first_order_slack ~params ~shape:4 ~tleft:horizon in
  let slacked =
    mean (S.with_slack ~params ~slack (Core.Dp.policy dp_tables))
  in
  Alcotest.(check bool)
    (Printf.sprintf "slacked %.4f > plain %.4f (slack %.1f)" slacked plain slack)
    true (slacked > plain)

let test_tune_finds_positive_slack_under_jitter () =
  let horizon = 500.0 in
  let traces =
    Fault.Trace.batch
      ~dist:(Fault.Trace.Exponential { rate = params.P.lambda })
      ~seed:7L ~n:3000
  in
  let base = Core.Policies.numerical_optimum ~params ~horizon in
  let fresh_sampler () =
    let rng = Numerics.Rng.create ~seed:13L in
    fun () -> Numerics.Rng.gamma_int rng ~shape:2 ~scale:(params.P.c /. 2.0)
  in
  let best_slack, best_mean =
    S.tune ~grid:8 ~params ~fresh_sampler
      ~policy_of_slack:(fun slack -> S.with_slack ~params ~slack base)
      ~horizon traces
  in
  Alcotest.(check bool)
    (Printf.sprintf "tuned slack %.1f, value %.4f" best_slack best_mean)
    true
    (best_slack > 0.0 && best_mean > 0.0)

let () =
  Alcotest.run "slack"
    [
      ( "with_slack",
        [
          Alcotest.test_case "shifts the final checkpoint" `Quick
            test_with_slack_shifts_final;
          Alcotest.test_case "zero is identity" `Quick test_with_slack_zero_identity;
          Alcotest.test_case "clamped" `Quick test_with_slack_clamped;
          Alcotest.test_case "single checkpoint" `Quick
            test_with_slack_single_checkpoint;
          Alcotest.test_case "validation" `Quick test_with_slack_validation;
          qcheck_valid_plans;
        ] );
      ( "erlang cdf",
        [
          Alcotest.test_case "shape 1 = exponential" `Quick
            test_erlang_cdf_shape1_is_exponential;
          Alcotest.test_case "properties" `Quick test_erlang_cdf_properties;
          Alcotest.test_case "matches sampling" `Slow test_erlang_cdf_vs_sampling;
        ] );
      ( "slack selection",
        [
          Alcotest.test_case "first-order positive" `Quick
            test_first_order_slack_positive;
          Alcotest.test_case "degenerate" `Quick test_first_order_slack_degenerate;
          Alcotest.test_case "recovers the DP lead" `Slow
            test_slack_recovers_dp_lead;
          Alcotest.test_case "autotuning" `Slow
            test_tune_finds_positive_slack_under_jitter;
        ] );
    ]
