(* Tests for the fault library: parameters and failure traces. *)

module P = Fault.Params
module T = Fault.Trace

let close ?(eps = 1e-9) = Alcotest.(check (float eps))

(* Params *)

let test_make_valid () =
  let p = P.make ~lambda:0.01 ~c:5.0 ~r:4.0 ~d:1.0 in
  close "lambda" 0.01 p.P.lambda;
  close "mtbf" 100.0 (P.mtbf p)

let test_paper_convention () =
  let p = P.paper ~lambda:0.01 ~c:7.0 ~d:0.0 in
  close "r = c" 7.0 p.P.r

let test_validation () =
  let expect_invalid name f =
    match f () with
    | _ -> Alcotest.failf "%s accepted" name
    | exception Invalid_argument _ -> ()
  in
  expect_invalid "lambda 0" (fun () -> P.make ~lambda:0.0 ~c:1.0 ~r:1.0 ~d:0.0);
  expect_invalid "negative c" (fun () -> P.make ~lambda:1.0 ~c:(-1.0) ~r:1.0 ~d:0.0);
  expect_invalid "negative r" (fun () -> P.make ~lambda:1.0 ~c:1.0 ~r:(-0.1) ~d:0.0);
  expect_invalid "nan d" (fun () -> P.make ~lambda:1.0 ~c:1.0 ~r:1.0 ~d:nan)

let test_psucc_pfail () =
  let p = P.paper ~lambda:0.5 ~c:1.0 ~d:0.0 in
  close "psucc" (exp (-1.0)) (P.psucc p 2.0);
  close "complement" 1.0 (P.psucc p 3.0 +. P.pfail p 3.0);
  close "psucc of negative span" 1.0 (P.psucc p (-5.0));
  close "pfail of negative span" 0.0 (P.pfail p (-5.0))

let test_scale_platform () =
  let ind = P.make ~lambda:1e-6 ~c:60.0 ~r:60.0 ~d:0.0 in
  let app = P.scale_platform ind ~processors:1000 in
  close "rate scales" 1e-3 app.P.lambda;
  Alcotest.check_raises "zero processors"
    (Invalid_argument "Params.scale_platform: processors < 1") (fun () ->
      ignore (P.scale_platform ind ~processors:0))

let test_with_lambda () =
  let p = P.make ~lambda:0.01 ~c:5.0 ~r:4.0 ~d:1.0 in
  let q = P.with_lambda p ~lambda:0.02 in
  close ~eps:0.0 "rate replaced" 0.02 q.P.lambda;
  close ~eps:0.0 "c kept" p.P.c q.P.c;
  close ~eps:0.0 "r kept" p.P.r q.P.r;
  close ~eps:0.0 "d kept" p.P.d q.P.d;
  let expect_invalid name lambda =
    match P.with_lambda p ~lambda with
    | _ -> Alcotest.failf "%s accepted" name
    | exception Invalid_argument _ -> ()
  in
  expect_invalid "zero rate" 0.0;
  expect_invalid "negative rate" (-0.01);
  expect_invalid "nan rate" nan;
  expect_invalid "infinite rate" infinity

let test_degrade () =
  let p = P.make ~lambda:0.016 ~c:5.0 ~r:4.0 ~d:1.0 in
  let half = P.degrade p ~initial:16 ~survivors:8 in
  close "half the nodes, half the rate" 0.008 half.P.lambda;
  (* Spares may grow the platform past its initial size. *)
  let grown = P.degrade p ~initial:16 ~survivors:20 in
  close "spares raise the rate" 0.02 grown.P.lambda;
  (* The scale_platform law: degrading an n-node aggregate to m nodes
     is scaling the per-node rate by m. *)
  let per_node = P.make ~lambda:1e-3 ~c:5.0 ~r:4.0 ~d:1.0 in
  Alcotest.(check bool) "degrade/scale_platform law" true
    (P.equal
       (P.degrade (P.scale_platform per_node ~processors:16) ~initial:16
          ~survivors:11)
       (P.scale_platform per_node ~processors:11));
  let expect_invalid name f =
    match f () with
    | _ -> Alcotest.failf "%s accepted" name
    | exception Invalid_argument _ -> ()
  in
  expect_invalid "initial 0" (fun () -> P.degrade p ~initial:0 ~survivors:1);
  expect_invalid "survivors 0" (fun () -> P.degrade p ~initial:4 ~survivors:0)

(* Traces *)

let test_trace_deterministic () =
  let dist = T.Exponential { rate = 0.01 } in
  let a = T.create ~dist ~seed:5L and b = T.create ~dist ~seed:5L in
  for j = 0 to 100 do
    close ~eps:0.0 (Printf.sprintf "iat %d" j) (T.iat a j) (T.iat b j)
  done

let test_trace_memoized () =
  let tr = T.create ~dist:(T.Exponential { rate = 1.0 }) ~seed:9L in
  let x = T.iat tr 10 in
  (* reading out of order must not change already-drawn values *)
  ignore (T.iat tr 500);
  close ~eps:0.0 "memoized" x (T.iat tr 10)

let test_batch_reproducible () =
  let dist = T.Exponential { rate = 0.1 } in
  let b1 = T.batch ~dist ~seed:7L ~n:5 in
  let b2 = T.batch ~dist ~seed:7L ~n:5 in
  Array.iteri
    (fun i tr -> close ~eps:0.0 (Printf.sprintf "trace %d" i) (T.iat tr 3) (T.iat b2.(i) 3))
    b1;
  (* distinct traces within a batch *)
  Alcotest.(check bool) "traces differ" false
    (T.iat b1.(0) 0 = T.iat b1.(1) 0 && T.iat b1.(0) 1 = T.iat b1.(1) 1)

let test_of_iats () =
  let tr = T.of_iats [| 1.0; 2.0; 3.0 |] in
  close "first" 1.0 (T.iat tr 0);
  close "third" 3.0 (T.iat tr 2);
  (match T.iat tr 3 with
  | _ -> Alcotest.fail "read past fixed trace"
  | exception Invalid_argument _ -> ());
  (match T.of_iats [| 1.0; -2.0 |] with
  | _ -> Alcotest.fail "negative IAT accepted"
  | exception Invalid_argument _ -> ())

let test_prefetch_covers () =
  let tr = T.create ~dist:(T.Exponential { rate = 0.1 }) ~seed:3L in
  T.prefetch tr ~until:100.0;
  (* After prefetch, replay can walk to 100 exposed time without drawing
     (we cannot observe drawing directly, but the walk must produce the
     same values as a fresh identical trace). *)
  let reference = T.create ~dist:(T.Exponential { rate = 0.1 }) ~seed:3L in
  let j = ref 0 and clock = ref (T.iat tr 0) in
  while !clock <= 100.0 do
    close ~eps:0.0 "same IAT" (T.iat reference !j) (T.iat tr !j);
    incr j;
    clock := !clock +. T.iat tr !j
  done

let test_exponential_trace_mtbf () =
  let rate = 0.02 in
  let tr = T.create ~dist:(T.Exponential { rate }) ~seed:11L in
  let n = 50_000 in
  let sum = ref 0.0 in
  for j = 0 to n - 1 do
    sum := !sum +. T.iat tr j
  done;
  close ~eps:1.0 "empirical MTBF" (1.0 /. rate) (!sum /. float_of_int n)

(* Platform events *)

let node_model =
  { T.nodes = 8; spares = 2; loss_prob = 0.5; rejoin_delay = 5.0 }

let test_platform_batch_deterministic () =
  let gen () =
    T.platform_batch ~model:node_model ~rate:0.01 ~d:2.0 ~horizon:500.0
      ~seed:21L ~n:4
  in
  let h1 = gen () and h2 = gen () in
  Array.iteri
    (fun i (tr1, ev1) ->
      let tr2, ev2 = h2.(i) in
      Alcotest.(check (array (float 0.0)))
        (Printf.sprintf "history %d iats identical" i)
        (T.iats_until tr1 ~until:500.0)
        (T.iats_until tr2 ~until:500.0);
      Alcotest.(check bool)
        (Printf.sprintf "history %d events identical" i)
        true (ev1 = ev2))
    h1;
  (* The batch draws independent histories. *)
  let ev0 = snd h1.(0) and ev1 = snd h1.(1) in
  Alcotest.(check bool) "histories differ" false
    (ev0 = ev1 && T.iat (fst h1.(0)) 0 = T.iat (fst h1.(1)) 0)

let test_platform_events_well_formed () =
  let histories =
    T.platform_batch ~model:node_model ~rate:0.02 ~d:2.0 ~horizon:800.0
      ~seed:5L ~n:8
  in
  let total = ref 0 in
  Array.iter
    (fun (_, events) ->
      T.validate_platform_events events (* must not raise *);
      total := !total + List.length events;
      List.iter
        (fun e ->
          let s = T.event_survivors e in
          Alcotest.(check bool) "survivors within [1, nodes + spares]" true
            (s >= 1 && s <= node_model.T.nodes + node_model.T.spares))
        events)
    histories;
  Alcotest.(check bool) "a lossy platform produces events" true (!total > 0)

let test_dist_means () =
  close "exponential mean" 50.0 (T.dist_mean (T.Exponential { rate = 0.02 }));
  (* Weibull k=1 mean = scale *)
  close ~eps:1e-9 "weibull k=1 mean" 10.0
    (T.dist_mean (T.Weibull { shape = 1.0; scale = 10.0 }));
  (* Weibull k=2 mean = scale * sqrt(pi)/2 *)
  close ~eps:1e-9 "weibull k=2 mean" (7.0 *. sqrt Float.pi /. 2.0)
    (T.dist_mean (T.Weibull { shape = 2.0; scale = 7.0 }))

let test_calibrated_dists () =
  let mtbf = 123.0 in
  close ~eps:1e-9 "weibull calibrated" mtbf
    (T.dist_mean (T.weibull_with_mtbf ~shape:0.7 ~mtbf));
  close ~eps:1e-9 "lognormal calibrated" mtbf
    (T.dist_mean (T.lognormal_with_mtbf ~sigma:1.2 ~mtbf))

let test_calibrated_empirical () =
  let mtbf = 200.0 in
  let dist = T.weibull_with_mtbf ~shape:0.7 ~mtbf in
  let tr = T.create ~dist ~seed:13L in
  let n = 100_000 in
  let sum = ref 0.0 in
  for j = 0 to n - 1 do
    sum := !sum +. T.iat tr j
  done;
  close ~eps:4.0 "weibull empirical MTBF" mtbf (!sum /. float_of_int n)

(* Predictor *)

module Pred = Fault.Predictor

let pred_params ?(p = 0.8) ?(r = 0.7) ?(w = 10.0) () = { Pred.p; r; w }

let test_predictor_deterministic () =
  let trace = T.create ~dist:(T.Exponential { rate = 0.002 }) ~seed:11L in
  let events () =
    Pred.events ~params:(pred_params ()) ~rate:0.002 ~horizon:5000.0
      ~seed:99L trace
  in
  let a = events () and b = events () in
  Alcotest.(check bool) "bit-identical" true (a = b);
  Alcotest.(check bool) "non-empty" true (a <> [])

let test_predictor_empty_law () =
  let trace = T.create ~dist:(T.Exponential { rate = 0.01 }) ~seed:3L in
  List.iter
    (fun params ->
      Alcotest.(check int) "empty stream" 0
        (List.length
           (Pred.events ~params ~rate:0.01 ~horizon:10000.0 ~seed:5L trace)))
    [
      pred_params ~p:0.0 ();
      pred_params ~r:0.0 ();
      pred_params ~p:0.0 ~r:0.0 ();
    ]

let test_predictor_well_formed () =
  let trace = T.create ~dist:(T.Exponential { rate = 0.005 }) ~seed:21L in
  let w = 12.5 and horizon = 4000.0 in
  let events =
    Pred.events ~params:(pred_params ~w ()) ~rate:0.005 ~horizon ~seed:7L
      trace
  in
  Pred.validate_events events;
  List.iter
    (fun (e : Pred.event) ->
      Alcotest.(check bool) "firing date in range" true
        (e.Pred.at >= 0.0 && e.Pred.at < horizon);
      Alcotest.(check (float 0.0)) "window is w" w e.Pred.window)
    events;
  (* True positives fire exactly w before their fault (clamped at 0), so
     every one must sit at (fault - w) for some fault of the trace. *)
  let faults =
    let iats = T.iats_until trace ~until:horizon in
    let clock = ref 0.0 in
    Array.to_list (Array.map (fun d -> clock := !clock +. d; !clock) iats)
  in
  List.iter
    (fun (e : Pred.event) ->
      if e.Pred.true_positive then
        Alcotest.(check bool) "anchored to a fault" true
          (List.exists
             (fun f -> Float.abs (Float.max 0.0 (f -. w) -. e.Pred.at) < 1e-9)
             faults))
    events

let test_predictor_accounting () =
  (* Precision and recall are statistical promises; check them over a
     large batch. *)
  let n = 400 and horizon = 5000.0 and rate = 0.002 in
  let params = pred_params ~p:0.8 ~r:0.7 ~w:20.0 () in
  let traces = T.batch ~dist:(T.Exponential { rate }) ~seed:77L ~n in
  let streams = Pred.batch ~params ~rate ~horizon ~seed:78L traces in
  let tp = ref 0 and fa = ref 0 and faults = ref 0 in
  Array.iteri
    (fun i tr ->
      let clock = ref 0.0 in
      Array.iter
        (fun d ->
          clock := !clock +. d;
          if !clock < horizon then incr faults)
        (T.iats_until tr ~until:horizon);
      List.iter
        (fun (e : Pred.event) ->
          if e.Pred.true_positive then incr tp else incr fa)
        streams.(i))
    traces;
  let precision = float_of_int !tp /. float_of_int (!tp + !fa) in
  let recall = float_of_int !tp /. float_of_int !faults in
  close ~eps:0.03 "precision ~= p" 0.8 precision;
  close ~eps:0.03 "recall ~= r" 0.7 recall

let test_predictor_batch_prefix_stable () =
  (* The Trace.batch split convention: stream i does not depend on how
     many traces follow it in the array. *)
  let rate = 0.004 in
  let traces = T.batch ~dist:(T.Exponential { rate }) ~seed:31L ~n:5 in
  let params = pred_params () in
  let full = Pred.batch ~params ~rate ~horizon:2000.0 ~seed:32L traces in
  let prefix =
    Pred.batch ~params ~rate ~horizon:2000.0 ~seed:32L (Array.sub traces 0 3)
  in
  for i = 0 to 2 do
    Alcotest.(check bool)
      (Printf.sprintf "stream %d stable" i)
      true
      (full.(i) = prefix.(i))
  done

let test_predictor_validation () =
  let expect_invalid name f =
    match f () with
    | _ -> Alcotest.failf "%s accepted" name
    | exception Invalid_argument _ -> ()
  in
  expect_invalid "p > 1" (fun () -> Pred.validate (pred_params ~p:1.5 ()));
  expect_invalid "negative r" (fun () ->
      Pred.validate (pred_params ~r:(-0.1) ()));
  expect_invalid "nan w" (fun () -> Pred.validate (pred_params ~w:nan ()));
  expect_invalid "infinite w" (fun () ->
      Pred.validate (pred_params ~w:infinity ()));
  Pred.validate (pred_params ());
  let trace = T.of_iats [| 5.0; 1000.0 |] in
  expect_invalid "unsorted events" (fun () ->
      Pred.validate_events
        [
          { Pred.at = 4.0; window = 1.0; true_positive = true };
          { Pred.at = 2.0; window = 1.0; true_positive = false };
        ]);
  expect_invalid "zero rate" (fun () ->
      Pred.events ~params:(pred_params ()) ~rate:0.0 ~horizon:10.0 ~seed:1L
        trace)

let qcheck_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"IATs are positive" ~count:200
         QCheck.(pair small_nat (float_range 1e-4 1.0))
         (fun (seed, rate) ->
           let tr =
             T.create ~dist:(T.Exponential { rate }) ~seed:(Int64.of_int seed)
           in
           let ok = ref true in
           for j = 0 to 50 do
             if T.iat tr j <= 0.0 then ok := false
           done;
           !ok));
  ]

let () =
  Alcotest.run "fault"
    [
      ( "params",
        [
          Alcotest.test_case "make" `Quick test_make_valid;
          Alcotest.test_case "paper convention" `Quick test_paper_convention;
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "psucc/pfail" `Quick test_psucc_pfail;
          Alcotest.test_case "platform scaling" `Quick test_scale_platform;
          Alcotest.test_case "with_lambda" `Quick test_with_lambda;
          Alcotest.test_case "degrade" `Quick test_degrade;
        ] );
      ( "traces",
        [
          Alcotest.test_case "deterministic" `Quick test_trace_deterministic;
          Alcotest.test_case "memoized" `Quick test_trace_memoized;
          Alcotest.test_case "batch reproducible" `Quick test_batch_reproducible;
          Alcotest.test_case "fixed traces" `Quick test_of_iats;
          Alcotest.test_case "prefetch" `Quick test_prefetch_covers;
          Alcotest.test_case "empirical MTBF" `Slow test_exponential_trace_mtbf;
        ] );
      ( "platform",
        [
          Alcotest.test_case "batch deterministic" `Quick
            test_platform_batch_deterministic;
          Alcotest.test_case "events well-formed" `Quick
            test_platform_events_well_formed;
        ] );
      ( "distributions",
        [
          Alcotest.test_case "analytic means" `Quick test_dist_means;
          Alcotest.test_case "MTBF calibration" `Quick test_calibrated_dists;
          Alcotest.test_case "calibrated empirical" `Slow test_calibrated_empirical;
        ] );
      ( "predictor",
        [
          Alcotest.test_case "deterministic" `Quick
            test_predictor_deterministic;
          Alcotest.test_case "p=0 or r=0 is empty" `Quick
            test_predictor_empty_law;
          Alcotest.test_case "well-formed events" `Quick
            test_predictor_well_formed;
          Alcotest.test_case "precision/recall accounting" `Slow
            test_predictor_accounting;
          Alcotest.test_case "batch prefix stable" `Quick
            test_predictor_batch_prefix_stable;
          Alcotest.test_case "validation" `Quick test_predictor_validation;
        ] );
      ("properties", qcheck_tests);
    ]
