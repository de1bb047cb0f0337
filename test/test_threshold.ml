(* Tests for Core.Threshold: the exact gain formula against a brute-force
   evaluation, the threshold tables, and their asymptotics. *)

module Th = Core.Threshold
module P = Fault.Params

let close ?(eps = 1e-9) = Alcotest.(check (float eps))

let params = P.paper ~lambda:0.001 ~c:20.0 ~d:0.0

let test_gain_equals_brute_force () =
  (* The slice decomposition of Section 5 must agree exactly with the
     direct expected-work difference of the two explicit plans. *)
  List.iter
    (fun (lambda, c, t, n) ->
      let params = P.paper ~lambda ~c ~d:0.0 in
      close ~eps:1e-10
        (Printf.sprintf "λ=%g C=%g T=%g n=%d" lambda c t n)
        (Th.gain_brute_force ~params ~t ~n)
        (Th.gain ~params ~t ~n))
    [
      (0.001, 20.0, 300.0, 1);
      (0.001, 20.0, 500.0, 2);
      (0.001, 20.0, 800.0, 3);
      (0.01, 10.0, 120.0, 1);
      (0.01, 80.0, 900.0, 2);
      (0.0001, 160.0, 1800.0, 1);
      (0.005, 40.0, 1500.0, 5);
    ]

let test_gain_negative_for_short_reservations () =
  (* Just above the feasibility bound, the extra checkpoint cannot pay
     off. *)
  Alcotest.(check bool) "negative near the bound" true
    (Th.gain ~params ~t:60.0 ~n:1 < 0.0)

let test_gain_positive_beyond_threshold () =
  let t2 = Th.threshold_numerical ~params 1 in
  Alcotest.(check bool) "positive after T_2" true
    (Th.gain ~params ~t:(t2 +. 10.0) ~n:1 > 0.0);
  Alcotest.(check bool) "negative before T_2" true
    (Th.gain ~params ~t:(t2 -. 10.0) ~n:1 < 0.0);
  close ~eps:1e-6 "zero at T_2" 0.0 (Th.gain ~params ~t:t2 ~n:1)

let test_threshold_first_order_values () =
  (* T_{n+1} = sqrt(2 n (n+1) C / λ); for λ=0.001, C=20:
     T_2 = sqrt(2*1*2*20*1000) = sqrt(80000). *)
  close ~eps:1e-9 "T_2 first order" (sqrt 80_000.0)
    (Th.threshold_first_order ~params ~n:1);
  close ~eps:1e-9 "T_3 first order" (sqrt 240_000.0)
    (Th.threshold_first_order ~params ~n:2)

let test_first_order_is_sqrt2_young_daly () =
  (* T_2 = sqrt(2) * W_YD: the paper's headline comparison. *)
  close ~eps:1e-9 "sqrt(2) W_YD"
    (sqrt 2.0 *. Core.Model.young_daly_period params)
    (Th.threshold_first_order ~params ~n:1)

let test_numerical_close_to_first_order_small_lambda () =
  (* As λ -> 0 the numerical thresholds approach the first-order ones. *)
  let rel_gap lambda n =
    let params = P.paper ~lambda ~c:20.0 ~d:0.0 in
    let numerical = Th.threshold_numerical ~params n in
    let fo = Th.threshold_first_order ~params ~n in
    abs_float (numerical -. fo) /. fo
  in
  Alcotest.(check bool) "gap shrinks with lambda" true
    (rel_gap 1e-5 1 < rel_gap 1e-3 1);
  Alcotest.(check bool) "small at 1e-6" true (rel_gap 1e-6 1 < 0.02)

let test_geometric_mean_close () =
  (* The geometric-mean approximation from the paper stays within a few
     percent of the numerical threshold in the Young/Daly regime. *)
  let params = P.paper ~lambda:0.0001 ~c:20.0 ~d:0.0 in
  List.iter
    (fun n ->
      let numerical = Th.threshold_numerical ~params n in
      let gm = Th.geometric_mean_approx ~params ~n in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d: |%.1f - %.1f| < 5%%" n numerical gm)
        true
        (abs_float (numerical -. gm) /. numerical < 0.05))
    [ 1; 2; 3 ]

let test_table_monotone () =
  let table = Th.table_numerical ~params ~up_to:2000.0 in
  let t = table.Th.thresholds in
  Alcotest.(check bool) "at least 5 thresholds" true (Array.length t >= 5);
  close "T_1 = 0" 0.0 t.(0);
  for i = 0 to Array.length t - 2 do
    if t.(i + 1) <= t.(i) then
      Alcotest.failf "thresholds not increasing at %d: %g vs %g" i t.(i)
        t.(i + 1)
  done

let test_table_feasibility () =
  (* T_{n+1} must leave room for n+1 checkpoints. *)
  let table = Th.table_numerical ~params ~up_to:2000.0 in
  Array.iteri
    (fun i t ->
      if i > 0 then
        Alcotest.(check bool)
          (Printf.sprintf "T_%d >= %d C" (i + 1) (i + 1))
          true
          (t >= float_of_int (i + 1) *. params.P.c -. 1e-9))
    table.Th.thresholds

let test_segments_for () =
  let table = Th.table_numerical ~params ~up_to:2000.0 in
  let t2 = table.Th.thresholds.(1) in
  Alcotest.(check int) "1 segment below T_2" 1
    (Th.segments_for table ~tleft:(t2 -. 1.0));
  Alcotest.(check int) "2 segments above T_2" 2
    (Th.segments_for table ~tleft:(t2 +. 1.0));
  Alcotest.(check int) "1 segment for tiny tleft" 1
    (Th.segments_for table ~tleft:1.0);
  (* at the table's end, count equals the table's size *)
  Alcotest.(check int) "top of table"
    (Array.length table.Th.thresholds)
    (Th.segments_for table ~tleft:1.0e9)

let test_first_order_table () =
  let table = Th.table_first_order ~params ~up_to:2000.0 in
  let reference = Th.threshold_first_order ~params ~n:1 in
  close ~eps:1e-9 "first entry after sentinel" reference table.Th.thresholds.(1)

let test_validation () =
  Alcotest.check_raises "gain n=0" (Invalid_argument "Threshold.gain: n < 1")
    (fun () -> ignore (Th.gain ~params ~t:100.0 ~n:0));
  Alcotest.check_raises "gain t=0" (Invalid_argument "Threshold.gain: t <= 0")
    (fun () -> ignore (Th.gain ~params ~t:0.0 ~n:1))

(* With C = 0 every threshold collapses to 0 and the table builders
   would scan forever: they must reject instead of hanging. *)
let test_tables_reject_zero_c () =
  let params = P.make ~lambda:0.001 ~c:0.0 ~r:0.0 ~d:0.0 in
  Alcotest.check_raises "numerical table C=0"
    (Invalid_argument "Threshold.table_numerical: thresholds degenerate for C = 0")
    (fun () -> ignore (Th.table_numerical ~params ~up_to:100.0));
  Alcotest.check_raises "first-order table C=0"
    (Invalid_argument
       "Threshold.table_first_order: thresholds degenerate for C = 0")
    (fun () -> ignore (Th.table_first_order ~params ~up_to:100.0))

(* A non-finite bound would grow the table forever. *)
let test_tables_reject_non_finite_bound () =
  List.iter
    (fun up_to ->
      Alcotest.check_raises
        (Printf.sprintf "numerical table up to %g" up_to)
        (Invalid_argument "Threshold: up_to must be finite and >= 0")
        (fun () -> ignore (Th.table_numerical ~params ~up_to));
      Alcotest.check_raises
        (Printf.sprintf "first-order table up to %g" up_to)
        (Invalid_argument "Threshold: up_to must be finite and >= 0")
        (fun () -> ignore (Th.table_first_order ~params ~up_to)))
    [ nan; infinity; -1.0 ]

let qcheck_tests =
  let arb =
    QCheck.make
      QCheck.Gen.(
        let* lambda = float_range 1e-5 0.02 in
        let* c = float_range 2.0 100.0 in
        let* n = int_range 1 6 in
        let* factor = float_range 1.2 8.0 in
        return (P.paper ~lambda ~c ~d:0.0, factor *. float_of_int (n + 1) *. c, n))
      ~print:(fun (p, t, n) ->
        Printf.sprintf "%s t=%g n=%d" (P.to_string p) t n)
  in
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"gain formula = brute force (random)" ~count:500
         arb (fun (params, t, n) ->
           let a = Th.gain ~params ~t ~n in
           let b = Th.gain_brute_force ~params ~t ~n in
           abs_float (a -. b) <= 1e-8 *. (1.0 +. abs_float a)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"numerical threshold within feasible range"
         ~count:100
         (QCheck.make
            QCheck.Gen.(
              let* lambda = float_range 1e-4 0.01 in
              let* c = float_range 5.0 50.0 in
              return (P.paper ~lambda ~c ~d:0.0))
            ~print:P.to_string)
         (fun params ->
           let t2 = Th.threshold_numerical ~params 1 in
           t2 >= 2.0 *. params.P.c -. 1e-9
           && t2 <= 10.0 *. Th.threshold_first_order ~params ~n:1));
  ]

let () =
  Alcotest.run "threshold"
    [
      ( "gain",
        [
          Alcotest.test_case "equals brute force" `Quick test_gain_equals_brute_force;
          Alcotest.test_case "negative for short T" `Quick
            test_gain_negative_for_short_reservations;
          Alcotest.test_case "sign change at threshold" `Quick
            test_gain_positive_beyond_threshold;
          Alcotest.test_case "validation" `Quick test_validation;
        ] );
      ( "first order",
        [
          Alcotest.test_case "equation (5) values" `Quick
            test_threshold_first_order_values;
          Alcotest.test_case "sqrt(2) Young/Daly" `Quick
            test_first_order_is_sqrt2_young_daly;
          Alcotest.test_case "approaches numerical" `Quick
            test_numerical_close_to_first_order_small_lambda;
          Alcotest.test_case "geometric mean" `Quick test_geometric_mean_close;
        ] );
      ( "tables",
        [
          Alcotest.test_case "monotone" `Quick test_table_monotone;
          Alcotest.test_case "feasible" `Quick test_table_feasibility;
          Alcotest.test_case "segments_for" `Quick test_segments_for;
          Alcotest.test_case "first-order table" `Quick test_first_order_table;
          Alcotest.test_case "reject C = 0" `Quick test_tables_reject_zero_c;
          Alcotest.test_case "reject non-finite bounds" `Quick
            test_tables_reject_non_finite_bound;
        ] );
      ("properties", qcheck_tests);
    ]
