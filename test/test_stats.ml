(* Tests for Numerics.Stats. *)

module S = Numerics.Stats

let close ?(eps = 1e-9) = Alcotest.(check (float eps))

let feed xs =
  let acc = S.acc_create () in
  Array.iter (S.acc_add acc) xs;
  acc

let test_empty () =
  let acc = S.acc_create () in
  Alcotest.(check int) "count" 0 (S.acc_count acc);
  Alcotest.(check bool) "mean nan" true (Float.is_nan (S.acc_mean acc))

let test_single () =
  let acc = feed [| 42.0 |] in
  close "mean" 42.0 (S.acc_mean acc);
  Alcotest.(check bool) "variance nan" true (Float.is_nan (S.acc_variance acc));
  close "min" 42.0 (S.acc_min acc);
  close "max" 42.0 (S.acc_max acc)

let test_known_moments () =
  let acc = feed [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  close "mean" 5.0 (S.acc_mean acc);
  (* sample variance with n-1: sum sq dev = 32, / 7 *)
  close "variance" (32.0 /. 7.0) (S.acc_variance acc);
  close "stddev" (sqrt (32.0 /. 7.0)) (S.acc_stddev acc)

let test_welford_stability () =
  (* Large offset: the naive sum-of-squares formula would lose all
     precision; Welford must not. *)
  let offset = 1e9 in
  let xs = Array.init 1000 (fun i -> offset +. float_of_int (i mod 10)) in
  let acc = feed xs in
  close ~eps:1e-6 "variance at large offset" (S.variance (Array.map (fun x -> x -. offset) xs))
    (S.acc_variance acc)

let test_merge_equals_sequential () =
  let xs = Array.init 100 (fun i -> sin (float_of_int i)) in
  let ys = Array.init 57 (fun i -> cos (float_of_int i) *. 3.0) in
  let merged = S.acc_merge (feed xs) (feed ys) in
  let all = feed (Array.append xs ys) in
  close ~eps:1e-12 "mean" (S.acc_mean all) (S.acc_mean merged);
  close ~eps:1e-10 "variance" (S.acc_variance all) (S.acc_variance merged);
  Alcotest.(check int) "count" (S.acc_count all) (S.acc_count merged);
  close "min" (S.acc_min all) (S.acc_min merged);
  close "max" (S.acc_max all) (S.acc_max merged)

let test_merge_with_empty () =
  let xs = feed [| 1.0; 2.0; 3.0 |] in
  let e = S.acc_create () in
  close "left empty" 2.0 (S.acc_mean (S.acc_merge e xs));
  close "right empty" 2.0 (S.acc_mean (S.acc_merge xs e))

let test_summary () =
  let s = S.of_array (Array.init 100 (fun i -> float_of_int i)) in
  Alcotest.(check int) "count" 100 s.S.count;
  close "mean" 49.5 s.S.mean;
  close "min" 0.0 s.S.min;
  close "max" 99.0 s.S.max;
  close ~eps:1e-9 "ci95" (1.96 *. s.S.stddev /. 10.0) s.S.ci95_half_width

let test_quantiles () =
  let xs = [| 3.0; 1.0; 4.0; 1.0; 5.0; 9.0; 2.0; 6.0 |] in
  close "q0 = min" 1.0 (S.quantile xs ~q:0.0);
  close "q1 = max" 9.0 (S.quantile xs ~q:1.0);
  close "median interpolates" 3.5 (S.median xs);
  (* xs must be untouched *)
  Alcotest.(check (float 0.0)) "input unmodified" 3.0 xs.(0)

let test_quantile_errors () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.quantile: empty array")
    (fun () -> ignore (S.quantile [||] ~q:0.5));
  Alcotest.check_raises "q out of range"
    (Invalid_argument "Stats.quantile: q outside [0, 1]") (fun () ->
      ignore (S.quantile [| 1.0 |] ~q:1.5))

(* Type-7 quantile as [S.quantile] computed it before [S.quantiles]
   existed: its own sorted copy per call, polymorphic compare. *)
let reference_quantile xs ~q =
  let n = Array.length xs in
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let pos = q *. float_of_int (n - 1) in
  let lo = int_of_float (floor pos) in
  let hi = int_of_float (ceil pos) in
  if lo = hi then sorted.(lo)
  else begin
    let w = pos -. float_of_int lo in
    ((1.0 -. w) *. sorted.(lo)) +. (w *. sorted.(hi))
  end

let bit_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* One sorted copy answers every q exactly as one call per q does. *)
let quantiles_agree xs qs =
  let got = S.quantiles xs ~qs in
  Array.length got = Array.length qs
  && Array.for_all2
       (fun q v ->
         bit_equal v (S.quantile xs ~q)
         && bit_equal v (reference_quantile xs ~q))
       qs got

let fold_qs = [| 0.0; 0.05; 0.5; 0.95; 1.0 |]

let test_quantiles_one_sort () =
  let check name xs =
    Alcotest.(check bool) name true (quantiles_agree xs fold_qs)
  in
  check "n = 1" [| 4.25 |];
  check "n = 2" [| 7.0; -3.0 |];
  check "duplicates" [| 2.0; 2.0; 1.0; 2.0; 3.0; 1.0; 1.0 |];
  check "all equal" (Array.make 9 0.3);
  check "signed zeros" [| 0.0; -0.0; 1.0; -0.0 |];
  let xs = [| 5.0; 1.0; 3.0 |] in
  ignore (S.quantiles xs ~qs:fold_qs : float array);
  Alcotest.(check (array (float 0.0)))
    "input unmodified" [| 5.0; 1.0; 3.0 |] xs;
  Alcotest.(check (array (float 0.0))) "no qs" [||] (S.quantiles xs ~qs:[||]);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.quantile: empty array")
    (fun () -> ignore (S.quantiles [||] ~qs:[| 0.5 |]));
  Alcotest.check_raises "q out of range"
    (Invalid_argument "Stats.quantile: q outside [0, 1]") (fun () ->
      ignore (S.quantiles [| 1.0 |] ~qs:[| 0.5; -0.1 |]))

let qcheck_tests =
  let arr = QCheck.(array_of_size (Gen.int_range 2 200) (float_range (-100.0) 100.0)) in
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"mean within [min, max]" ~count:500 arr (fun xs ->
           let s = S.of_array xs in
           s.S.mean >= s.S.min -. 1e-9 && s.S.mean <= s.S.max +. 1e-9));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"variance nonnegative" ~count:500 arr (fun xs ->
           S.variance xs >= -1e-9));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"quantile is monotone in q" ~count:500 arr
         (fun xs ->
           S.quantile xs ~q:0.25 <= S.quantile xs ~q:0.75 +. 1e-12));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"quantiles bit-equal to one quantile per q"
         ~count:500
         QCheck.(
           pair
             (array_of_size (Gen.int_range 1 60)
                (oneof
                   [
                     float_range (-5.0) 5.0;
                     map float_of_int (int_range (-3) 3);
                   ]))
             (array_of_size (Gen.int_range 0 6) (float_range 0.0 1.0)))
         (fun (xs, qs) -> quantiles_agree xs (Array.append fold_qs qs)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"merge is commutative" ~count:300
         QCheck.(pair arr arr)
         (fun (xs, ys) ->
           let m1 = S.acc_merge (feed xs) (feed ys) in
           let m2 = S.acc_merge (feed ys) (feed xs) in
           abs_float (S.acc_mean m1 -. S.acc_mean m2) < 1e-9
           && abs_float (S.acc_variance m1 -. S.acc_variance m2) < 1e-6));
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
      ( "merge",
        [
          Alcotest.test_case "equals sequential" `Quick test_merge_equals_sequential;
          Alcotest.test_case "with empty" `Quick test_merge_with_empty;
        ] );
      ( "summaries",
        [
          Alcotest.test_case "summary fields" `Quick test_summary;
          Alcotest.test_case "quantiles" `Quick test_quantiles;
          Alcotest.test_case "quantile errors" `Quick test_quantile_errors;
          Alcotest.test_case "quantiles from one sort" `Quick
            test_quantiles_one_sort;
        ] );
      ("properties", qcheck_tests);
    ]
