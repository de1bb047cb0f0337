(* Tests for Sim.Policy: plan validity, the shapes of the generic
   policies, and property-based validation across random parameters. *)

module P = Sim.Policy

let params = Fault.Params.make ~lambda:0.001 ~c:10.0 ~r:8.0 ~d:2.0

let close ?(eps = 1e-9) = Alcotest.(check (float eps))
let offsets = Alcotest.(list (float 1e-9))

let plan policy ~tleft ~recovering = Plans.of_policy policy ~tleft ~recovering

let test_validate_accepts () =
  let accepts ~recovering offsets =
    P.validate_plan ~params ~tleft:100.0 ~recovering (Plans.of_list offsets)
  in
  accepts ~recovering:false [ 30.0; 60.0; 100.0 ];
  accepts ~recovering:true [ 18.0; 100.0 ];
  accepts ~recovering:false []

let test_validate_rejects () =
  let expect_invalid name p ~recovering =
    match
      P.validate_plan ~params ~tleft:100.0 ~recovering (Plans.of_list p)
    with
    | () -> Alcotest.failf "%s accepted" name
    | exception Invalid_argument _ -> ()
  in
  expect_invalid "beyond tleft" [ 120.0 ] ~recovering:false;
  expect_invalid "first before C" [ 5.0; 100.0 ] ~recovering:false;
  expect_invalid "first before R+C" [ 12.0; 100.0 ] ~recovering:true;
  expect_invalid "segment shorter than C" [ 30.0; 35.0 ] ~recovering:false;
  expect_invalid "not increasing" [ 50.0; 50.0 ] ~recovering:false

let test_no_checkpoint () =
  Alcotest.(check offsets) "always empty" []
    (plan P.no_checkpoint ~tleft:1000.0 ~recovering:false)

let test_single_final () =
  let p = P.single_final ~params in
  Alcotest.(check offsets) "checkpoint at end" [ 80.0 ]
    (plan p ~tleft:80.0 ~recovering:false);
  Alcotest.(check offsets) "too short" [] (plan p ~tleft:9.0 ~recovering:false);
  Alcotest.(check offsets) "too short with recovery" []
    (plan p ~tleft:17.0 ~recovering:true);
  Alcotest.(check offsets) "fits with recovery" [ 18.5 ]
    (plan p ~tleft:18.5 ~recovering:true)

let test_single_at () =
  let p = P.single_at ~params ~offset_from_end:5.0 in
  Alcotest.(check offsets) "shifted" [ 95.0 ] (plan p ~tleft:100.0 ~recovering:false);
  (* clamped so the checkpoint still fits *)
  Alcotest.(check offsets) "clamped" [ 10.0 ] (plan p ~tleft:12.0 ~recovering:false)

let test_equal_segments () =
  let p = P.equal_segments ~params ~count:4 in
  Alcotest.(check offsets) "four equal" [ 25.0; 50.0; 75.0; 100.0 ]
    (plan p ~tleft:100.0 ~recovering:false);
  (* with recovery, segments split tleft - r *)
  Alcotest.(check offsets) "recovery shifts" [ 31.0; 54.0; 77.0; 100.0 ]
    (plan p ~tleft:100.0 ~recovering:true);
  (* degrade when fewer checkpoints fit *)
  Alcotest.(check offsets) "degrades to fit" [ 12.5; 25.0 ]
    (plan p ~tleft:25.0 ~recovering:false)

let test_two_checkpoints () =
  let p = P.two_checkpoints ~params ~alpha:0.3 in
  Alcotest.(check offsets) "alpha split" [ 30.0; 100.0 ]
    (plan p ~tleft:100.0 ~recovering:false);
  (* alpha clamped to keep first segment >= C *)
  let p_small = P.two_checkpoints ~params ~alpha:0.01 in
  Alcotest.(check offsets) "clamped low" [ 10.0; 100.0 ]
    (plan p_small ~tleft:100.0 ~recovering:false);
  (* degrade to single checkpoint when two do not fit *)
  Alcotest.(check offsets) "degrades" [ 15.0 ]
    (plan p ~tleft:15.0 ~recovering:false)

let test_periodic () =
  let p = P.periodic ~params ~period:20.0 in
  (* stride 30; remaining after 2 checkpoints: 100-60=40 < 30+10 -> final
     checkpoint at the end. *)
  Alcotest.(check offsets) "periodic with final" [ 30.0; 60.0; 100.0 ]
    (plan p ~tleft:100.0 ~recovering:false);
  (* short reservation: only the final checkpoint *)
  Alcotest.(check offsets) "short" [ 35.0 ] (plan p ~tleft:35.0 ~recovering:false)

let test_max_work () =
  close "fresh" 90.0 (P.max_work ~params ~tleft:100.0 ~recovering:false);
  close "recovering" 82.0 (P.max_work ~params ~tleft:100.0 ~recovering:true);
  close "negative clamped" 0.0 (P.max_work ~params ~tleft:5.0 ~recovering:false)

(* Property tests: every generic policy must emit valid plans for any
   feasible state. *)

let param_gen =
  QCheck.Gen.(
    let* lambda = float_range 1e-5 0.05 in
    let* c = float_range 0.5 50.0 in
    let* r = float_range 0.0 50.0 in
    let* d = float_range 0.0 10.0 in
    return (Fault.Params.make ~lambda ~c ~r ~d))

let state_gen =
  QCheck.Gen.(
    let* params = param_gen in
    let* tleft = float_range 0.1 3000.0 in
    let* recovering = bool in
    return (params, tleft, recovering))

let state_arb =
  QCheck.make state_gen ~print:(fun (p, tleft, rec_) ->
      Printf.sprintf "%s tleft=%g recovering=%b" (Fault.Params.to_string p)
        tleft rec_)

let policy_emits_valid_plans name make_policy =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count:2000 state_arb
       (fun (params, tleft, recovering) ->
         let policy = make_policy params in
         match
           P.validate_plan ~params ~tleft ~recovering
             (Plans.buffer policy ~tleft ~recovering)
         with
         | () -> true
         | exception Invalid_argument msg ->
             QCheck.Test.fail_reportf "invalid plan: %s" msg))

let qcheck_tests =
  [
    policy_emits_valid_plans "single_final plans are valid" (fun params ->
        P.single_final ~params);
    policy_emits_valid_plans "single_at plans are valid" (fun params ->
        P.single_at ~params ~offset_from_end:(params.Fault.Params.c *. 0.7));
    policy_emits_valid_plans "equal_segments plans are valid" (fun params ->
        P.equal_segments ~params ~count:5);
    policy_emits_valid_plans "two_checkpoints plans are valid" (fun params ->
        P.two_checkpoints ~params ~alpha:0.37);
    policy_emits_valid_plans "periodic plans are valid" (fun params ->
        P.periodic ~params ~period:(3.0 *. params.Fault.Params.c));
  ]

let () =
  Alcotest.run "policy"
    [
      ( "validation",
        [
          Alcotest.test_case "accepts valid plans" `Quick test_validate_accepts;
          Alcotest.test_case "rejects invalid plans" `Quick test_validate_rejects;
        ] );
      ( "generic policies",
        [
          Alcotest.test_case "no_checkpoint" `Quick test_no_checkpoint;
          Alcotest.test_case "single_final" `Quick test_single_final;
          Alcotest.test_case "single_at" `Quick test_single_at;
          Alcotest.test_case "equal_segments" `Quick test_equal_segments;
          Alcotest.test_case "two_checkpoints" `Quick test_two_checkpoints;
          Alcotest.test_case "periodic" `Quick test_periodic;
          Alcotest.test_case "max_work" `Quick test_max_work;
        ] );
      ("properties", qcheck_tests);
    ]
