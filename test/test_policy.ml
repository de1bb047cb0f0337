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

(* NaN fails every comparison, so only a check of its own catches it;
   the message names the offset. *)
let test_validate_rejects_nan () =
  let expect msg offsets ~recovering =
    Alcotest.check_raises
      (Printf.sprintf "[%s]"
         (String.concat "; " (List.map string_of_float offsets)))
      (Invalid_argument msg)
      (fun () ->
        P.validate_plan ~params ~tleft:100.0 ~recovering (Plans.of_list offsets))
  in
  List.iter
    (fun recovering ->
      expect "plan: offset 0 is NaN" [ nan ] ~recovering;
      expect "plan: offset 1 is NaN" [ 20.0; nan ] ~recovering;
      expect "plan: offset 0 is NaN" [ nan; 50.0 ] ~recovering;
      expect "plan: offset 2 is NaN" [ 20.0; 50.0; nan; 100.0 ] ~recovering)
    [ false; true ];
  (* An earlier offset that breaks the contract still names the error. *)
  expect "plan: checkpoint completion 120 exceeds tleft 100" [ 120.0; nan ]
    ~recovering:false

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

(* {2 The validator against the frozen reference}

   Adversarial plans for [validate_plan]: offsets drawn next to every
   bound the contract compares against (one ulp either side of
   [tleft + eps], of [prev + (c - eps)] and of [base + c - eps]), equal
   neighbours, signed zeros, infinities, and junk in the stale slots
   past [len]. [Ref_engine.validate_plan] is the list-based validator
   as it stood before the one-pass rewrite. *)

let validation_verdict f =
  match f () with () -> Ok () | exception Invalid_argument msg -> Error msg

let around x = QCheck.Gen.oneofl [ Float.pred x; x; Float.succ x ]

(* One plan of [len] offsets for [(params, tleft)]; the bounds assume a
   fresh start when [recovering_bias] is false, a recovery otherwise,
   and the plan is checked under both flags. *)
let adversarial_plan_gen ~params ~tleft ~recovering_bias ~len =
  let open QCheck.Gen in
  let c = params.Fault.Params.c and r = params.Fault.Params.r in
  let base = if recovering_bias then r else 0.0 in
  let eps = 1e-9 in
  let next prev =
    frequency
      [
        (6, map (fun x -> prev +. c +. x) (float_range 0.0 (2.0 *. c +. 1.0)));
        (2, around (prev +. (c -. eps)));
        (2, around (tleft +. eps));
        (2, around (base +. c -. eps));
        (1, return prev);
        (1, oneofl [ 0.0; -0.0; infinity; neg_infinity ]);
        (1, float_range (-10.0) (tleft +. 10.0));
      ]
  in
  let rec go acc prev k =
    if k = 0 then return (List.rev acc)
    else next prev >>= fun off -> go (off :: acc) off (k - 1)
  in
  go [] 0.0 len

let adversarial_gen =
  QCheck.Gen.(
    let* lambda = float_range 1e-5 0.05 in
    let* c = frequency [ (1, return 0.0); (8, float_range 0.5 50.0) ] in
    let* r = frequency [ (1, return 0.0); (4, float_range 0.0 50.0) ] in
    let params = Fault.Params.make ~lambda ~c ~r ~d:1.0 in
    let* tleft = float_range 0.0 3000.0 in
    let* recovering_bias = bool in
    let* len = int_range 0 40 in
    let* offsets = adversarial_plan_gen ~params ~tleft ~recovering_bias ~len in
    let* stale =
      list_size (int_range 0 8)
        (oneofl [ nan; infinity; neg_infinity; -1.0; 0.0; tleft +. 1.0 ])
    in
    return (params, tleft, offsets, stale))

let print_adversarial (params, tleft, offsets, stale) =
  let floats l = String.concat "; " (List.map (Printf.sprintf "%h") l) in
  Printf.sprintf "%s tleft=%h plan=[%s] stale=[%s]"
    (Fault.Params.to_string params) tleft (floats offsets) (floats stale)

(* The plan in a buffer whose slots past [len] hold [stale]. *)
let with_stale offsets stale =
  let p = Plans.of_list (offsets @ stale) in
  p.Sim.Plan.len <- List.length offsets;
  p

let matches_reference (params, tleft, offsets, stale) =
  List.for_all
    (fun recovering ->
      let got =
        validation_verdict (fun () ->
            P.validate_plan ~params ~tleft ~recovering
              (with_stale offsets stale))
      and want =
        validation_verdict (fun () ->
            Ref_engine.validate_plan ~params ~tleft ~recovering offsets)
      in
      got = want
      || QCheck.Test.fail_reportf "recovering=%b: got %s, reference %s"
           recovering
           (match got with Ok () -> "accepted" | Error m -> m)
           (match want with Ok () -> "accepted" | Error m -> m))
    [ false; true ]

let test_validator_matches_reference =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"validator matches the frozen reference"
       ~count:4000
       (QCheck.make adversarial_gen ~print:print_adversarial)
       matches_reference)

(* The same plans with NaN written over some offsets. The reference
   accepts NaN, so it can only word the error of an offset before the
   first NaN; past that, the plan must be refused with the NaN message
   naming that offset. *)
let nan_gen =
  QCheck.Gen.(
    let* params, tleft, offsets, stale = adversarial_gen in
    let len = List.length offsets in
    let* holes = list_size (int_range 1 3) (int_bound (max 0 (len - 1))) in
    let offsets =
      if len = 0 then [ nan ]
      else List.mapi (fun i x -> if List.mem i holes then nan else x) offsets
    in
    return (params, tleft, offsets, stale))

let nan_raises_its_message (params, tleft, offsets, stale) =
  let rec prefix i = function
    | x :: rest when not (Float.is_nan x) ->
        let before, at = prefix (i + 1) rest in
        (x :: before, at)
    | _ -> ([], i)
  in
  let before, at = prefix 0 offsets in
  List.for_all
    (fun recovering ->
      let got =
        validation_verdict (fun () ->
            P.validate_plan ~params ~tleft ~recovering
              (with_stale offsets stale))
      and want =
        match
          validation_verdict (fun () ->
              Ref_engine.validate_plan ~params ~tleft ~recovering before)
        with
        | Ok () -> Error (Printf.sprintf "plan: offset %d is NaN" at)
        | Error _ as e -> e
      in
      got = want
      || QCheck.Test.fail_reportf "recovering=%b: got %s, want %s" recovering
           (match got with Ok () -> "accepted" | Error m -> m)
           (match want with Ok () -> "accepted" | Error m -> m))
    [ false; true ]

let test_nan_plans_refused =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"NaN offsets raise their own message" ~count:2000
       (QCheck.make nan_gen ~print:print_adversarial)
       nan_raises_its_message)

let qcheck_tests =
  [
    test_validator_matches_reference;
    test_nan_plans_refused;
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
          Alcotest.test_case "rejects NaN offsets" `Quick
            test_validate_rejects_nan;
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
