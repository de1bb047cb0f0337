(* Tests for Numerics.Stats. *)

module S = Numerics.Stats

let close ?(eps = 1e-9) = Alcotest.(check (float eps))

let feed xs =
  let acc = S.acc_create () in
  Array.iter (S.acc_add acc) xs;
  acc

let test_empty () =
  let acc = S.acc_create () in
  Alcotest.(check int) "count" 0 (S.summarize acc).S.count;
  Alcotest.(check bool) "mean nan" true (Float.is_nan (S.acc_mean acc))

let test_single () =
  let acc = feed [| 42.0 |] in
  close "mean" 42.0 (S.acc_mean acc);
  Alcotest.(check bool) "variance nan" true (Float.is_nan (S.acc_variance acc));
  close "min" 42.0 (S.summarize acc).S.min;
  close "max" 42.0 (S.summarize acc).S.max

let test_known_moments () =
  let acc = feed [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  close "mean" 5.0 (S.acc_mean acc);
  (* sample variance with n-1: sum sq dev = 32, / 7 *)
  close "variance" (32.0 /. 7.0) (S.acc_variance acc);
  close "stddev" (sqrt (32.0 /. 7.0)) (S.summarize acc).S.stddev

let test_welford_stability () =
  (* Large offset: the naive sum-of-squares formula would lose all
     precision; Welford must not. *)
  let offset = 1e9 in
  let xs = Array.init 1000 (fun i -> offset +. float_of_int (i mod 10)) in
  let acc = feed xs in
  close ~eps:1e-6 "variance at large offset"
    (S.acc_variance (feed (Array.map (fun x -> x -. offset) xs)))
    (S.acc_variance acc)

let test_summary () =
  let s = S.summarize (feed (Array.init 100 (fun i -> float_of_int i))) in
  Alcotest.(check int) "count" 100 s.S.count;
  close "mean" 49.5 s.S.mean;
  close "min" 0.0 s.S.min;
  close "max" 99.0 s.S.max;
  close ~eps:1e-9 "ci95" (1.96 *. s.S.stddev /. 10.0) s.S.ci95_half_width

let qcheck_tests =
  let arr = QCheck.(array_of_size (Gen.int_range 2 200) (float_range (-100.0) 100.0)) in
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"mean within [min, max]" ~count:500 arr (fun xs ->
           let s = S.summarize (feed xs) in
           s.S.mean >= s.S.min -. 1e-9 && s.S.mean <= s.S.max +. 1e-9));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"variance nonnegative" ~count:500 arr (fun xs ->
           S.acc_variance (feed xs) >= -1e-9));
  ]

let () =
  Alcotest.run "stats"
    [
      ( "accumulator",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "single" `Quick test_single;
          Alcotest.test_case "known moments" `Quick test_known_moments;
          Alcotest.test_case "numerical stability" `Quick test_welford_stability;
        ] );
      ("summaries", [ Alcotest.test_case "summary fields" `Quick test_summary ]);
      ("properties", qcheck_tests);
    ]
