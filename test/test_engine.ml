(* Tests for Sim.Engine: exact outcomes on hand-crafted failure traces,
   downtime/exposure accounting, the stochastic-checkpoint mode, event
   recording and invariants under random traces. *)

module P = Sim.Policy
module E = Sim.Engine
module T = Fault.Trace

let close ?(eps = 1e-9) = Alcotest.(check (float eps))

let params = Fault.Params.make ~lambda:0.001 ~c:10.0 ~r:8.0 ~d:5.0
let quiet_trace () = T.of_iats [| 1.0e9 |]

let run ?record ?ckpt_sampler ~policy ~horizon trace =
  E.run ?record ?ckpt_sampler ~params ~horizon ~policy trace

let test_no_failure_single () =
  let outcome = run ~policy:(P.single_final ~params) ~horizon:100.0 (quiet_trace ()) in
  close "saved all but C" 90.0 outcome.E.work_saved;
  Alcotest.(check int) "one checkpoint" 1 outcome.E.checkpoints;
  Alcotest.(check int) "no failure" 0 outcome.E.failures;
  Alcotest.(check int) "one plan" 1 outcome.E.replans

let test_no_failure_periodic () =
  let policy = P.equal_segments ~params ~count:4 in
  let outcome = run ~policy ~horizon:100.0 (quiet_trace ()) in
  close "saved all but 4C" 60.0 outcome.E.work_saved;
  Alcotest.(check int) "four checkpoints" 4 outcome.E.checkpoints

let test_failure_before_first_ckpt_then_recover () =
  (* Horizon 100, single final checkpoint at 100. Failure at exposed 50:
     everything lost; downtime 5, replan at tleft = 45, new checkpoint
     completes at 45 (including recovery 8): saved 45 - 8 - 10 = 27. *)
  let trace = T.of_iats [| 50.0; 1.0e9 |] in
  let outcome = run ~policy:(P.single_final ~params) ~horizon:100.0 trace in
  close "saved after recovery" 27.0 outcome.E.work_saved;
  Alcotest.(check int) "one failure" 1 outcome.E.failures;
  Alcotest.(check int) "two plans" 2 outcome.E.replans

let test_failure_too_late_to_recover () =
  (* Failure at 95: tleft after downtime = 0 < R + C: nothing saved. *)
  let trace = T.of_iats [| 95.0; 1.0e9 |] in
  let outcome = run ~policy:(P.single_final ~params) ~horizon:100.0 trace in
  close "nothing saved" 0.0 outcome.E.work_saved;
  Alcotest.(check int) "one failure" 1 outcome.E.failures

let test_committed_work_survives_failure () =
  (* Two equal segments over 100: checkpoints at 50 and 100. Failure at
     exposed 70 loses only the second segment; replanning at
     tleft = 100 - 70 - 5 = 25 allows one more checkpoint at 25:
     25 - 8 - 10 = 7 more work. Total = (50-10) + 7 = 47. *)
  let trace = T.of_iats [| 70.0; 1.0e9 |] in
  let policy = P.equal_segments ~params ~count:2 in
  let outcome = run ~policy ~horizon:100.0 trace in
  close "first segment plus recovered tail" 47.0 outcome.E.work_saved;
  Alcotest.(check int) "two checkpoints" 2 outcome.E.checkpoints;
  Alcotest.(check int) "one failure" 1 outcome.E.failures

let test_downtime_not_exposed () =
  (* Failures at exposed times 50 and 60. After the first failure the
     clock of the second keeps running only during exposed time, so the
     second failure strikes 10 exposed units into the recovery attempt,
     i.e. at wall 50 + 5 (downtime) + 10 = 65. With single_final, replan
     after second failure: tleft = 100 - 65 - 5 = 30 -> save 30-8-10=12. *)
  let trace = T.of_iats [| 50.0; 10.0; 1.0e9 |] in
  let outcome =
    run ~record:true ~policy:(P.single_final ~params) ~horizon:100.0 trace
  in
  Alcotest.(check int) "two failures" 2 outcome.E.failures;
  close "final work" 12.0 outcome.E.work_saved;
  (* check the wall time of the second failure from the event log *)
  let failure_times =
    List.filter_map
      (function E.Failure { at; _ } -> Some at | _ -> None)
      outcome.E.events
  in
  Alcotest.(check (list (float 1e-9))) "failure wall times" [ 50.0; 65.0 ]
    failure_times

let test_multiple_failures_give_up () =
  (* Failures hammer the execution every 3 exposed units: R + C = 18
     never fits between failures... but the engine must terminate and
     save nothing. *)
  let trace = T.of_iats (Array.make 200 3.0) in
  let outcome = run ~policy:(P.single_final ~params) ~horizon:100.0 trace in
  close "nothing saved" 0.0 outcome.E.work_saved;
  Alcotest.(check bool) "several failures" true (outcome.E.failures > 3)

let test_events_chronological () =
  let trace = T.of_iats [| 70.0; 1.0e9 |] in
  let policy = P.equal_segments ~params ~count:2 in
  let outcome = run ~record:true ~policy ~horizon:100.0 trace in
  let times =
    List.map
      (function
        | E.Segment_saved { finish; _ } -> finish
        | E.Failure { at; _ } -> at
        | E.Gave_up { at } -> at
        | E.Platform_change { at; _ } -> at
        | E.Prediction { at; _ } -> at)
      outcome.E.events
  in
  let sorted = List.sort compare times in
  Alcotest.(check (list (float 1e-9))) "events in order" sorted times;
  (* and the lost time at the failure is relative to the last commit *)
  (match
     List.find_opt (function E.Failure _ -> true | _ -> false) outcome.E.events
   with
  | Some (E.Failure { lost; _ }) -> close "lost since last commit" 20.0 lost
  | _ -> Alcotest.fail "no failure event")

let test_no_events_without_record () =
  let outcome = run ~policy:(P.single_final ~params) ~horizon:100.0 (quiet_trace ()) in
  Alcotest.(check int) "no events" 0 (List.length outcome.E.events)

let test_stochastic_checkpoint_shifts () =
  (* Deterministic sampler making every checkpoint 5 units longer: the
     work saved per segment is unchanged, but the completion shifts.
     Equal(2) on 100: planned completions 50 and 100; actual durations 15
     mean the second completion would be 110 > 100: the second segment is
     lost. Saved = first segment work = 50 - 10 = 40. *)
  let sampler () = 15.0 in
  let policy = P.equal_segments ~params ~count:2 in
  let outcome =
    run ~ckpt_sampler:sampler ~policy ~horizon:100.0 (quiet_trace ())
  in
  close "only first segment saved" 40.0 outcome.E.work_saved;
  Alcotest.(check int) "one checkpoint" 1 outcome.E.checkpoints

let test_stochastic_checkpoint_shorter () =
  (* Faster checkpoints do not change committed work (the plan is already
     fixed), but everything still completes. *)
  let sampler () = 5.0 in
  let policy = P.equal_segments ~params ~count:2 in
  let outcome =
    run ~ckpt_sampler:sampler ~policy ~horizon:100.0 (quiet_trace ())
  in
  close "both segments saved" 80.0 outcome.E.work_saved;
  Alcotest.(check int) "two checkpoints" 2 outcome.E.checkpoints

let test_late_failure_downtime_clamped () =
  (* A stochastic checkpoint 30 units over nominal pushes the wall clock
     to 130 for a segment whose failure exposure ends at 130; a failure
     at exposed 120 therefore strikes with wall = 120, past the horizon
     of 100. The downtime share of the breakdown used to pick up
     min(D, horizon - wall) = -20; it must clamp to zero. *)
  let sampler () = params.Fault.Params.c +. 30.0 in
  let trace = T.of_iats [| 120.0; 1.0e9 |] in
  let outcome =
    run ~ckpt_sampler:sampler ~policy:(P.single_final ~params) ~horizon:100.0
      trace
  in
  Alcotest.(check int) "one failure" 1 outcome.E.failures;
  Alcotest.(check bool) "downtime share is nonnegative" true
    (outcome.E.breakdown.E.down >= 0.0);
  close "downtime share is empty" 0.0 outcome.E.breakdown.E.down;
  Alcotest.(check bool) "unused share is nonnegative" true
    (outcome.E.breakdown.E.unused >= 0.0)

let test_late_failure_draws_no_further_iat () =
  (* The same overrun on a fixed trace that covers the horizon on the
     exposed clock and no further, as a platform trace does: the failure
     at exposed 120 ends the run (wall is past the horizon), so the
     engine must not draw a second inter-arrival time that the trace
     does not hold. *)
  let sampler () = params.Fault.Params.c +. 30.0 in
  let outcome =
    run ~ckpt_sampler:sampler ~policy:(P.single_final ~params) ~horizon:100.0
      (T.of_iats [| 120.0 |])
  in
  Alcotest.(check int) "one failure" 1 outcome.E.failures;
  close "nothing saved" 0.0 outcome.E.work_saved

let test_proportion_metric () =
  let outcome = run ~policy:(P.single_final ~params) ~horizon:110.0 (quiet_trace ()) in
  close "proportion 1" 1.0 (E.proportion_of_work ~params ~horizon:110.0 outcome);
  Alcotest.check_raises "horizon <= c"
    (Invalid_argument "Engine.proportion_of_work: horizon must exceed C")
    (fun () -> ignore (E.proportion_of_work ~params ~horizon:5.0 outcome))

(* Allocation pin: an event-free run of each paper strategy stays off
   the minor heap. The loop allocates per query (the boxed [tleft]) and
   per failure (the next inter-arrival time), plus the outcome record;
   boxing the engine's clocks or a policy's offsets again costs hundreds
   of words per run and trips the bound. *)
let test_minor_words_per_run () =
  let params = Fault.Params.paper ~lambda:0.01 ~c:10.0 ~d:0.0 in
  let horizon = 2000.0 and n = 100 in
  let traces = T.batch ~dist:(T.Exponential { rate = 0.01 }) ~seed:11L ~n in
  Array.iter (fun tr -> T.prefetch tr ~until:horizon) traces;
  List.iter
    (fun policy ->
      let run tr = ignore (E.run ~params ~horizon ~policy tr : E.outcome) in
      (* The first run sizes this domain's plan buffer. *)
      run traces.(0);
      let w0 = Gc.minor_words () in
      Array.iter run traces;
      let per_run = (Gc.minor_words () -. w0) /. float_of_int n in
      if per_run > 300.0 then
        Alcotest.failf "%s: %.0f minor words per run (bound 300)" policy.P.name
          per_run)
    (Core.Policies.all_paper ~params ~quantum:1.0 ~horizon)

(* A non-finite horizon would have a periodic plan grow without end. *)
let test_non_finite_horizon_rejected () =
  List.iter
    (fun horizon ->
      Alcotest.check_raises
        (Printf.sprintf "horizon %g" horizon)
        (Invalid_argument "Engine.run: horizon must be finite")
        (fun () ->
          ignore
            (run ~policy:(P.periodic ~params ~period:20.0) ~horizon
               (quiet_trace ()))))
    [ nan; infinity; neg_infinity ];
  Alcotest.check_raises "negative horizon"
    (Invalid_argument "Engine.run: negative horizon") (fun () ->
      ignore
        (run ~policy:(P.single_final ~params) ~horizon:(-1.0) (quiet_trace ())))

(* The engine replays plans out of a buffer it reuses across runs on a
   domain. A run started from inside another (here from the checkpoint
   sampler, mid-walk) must plan into a buffer of its own, not over the
   plan the outer run is walking. *)
let test_nested_run_keeps_outer_plan () =
  let policy = P.equal_segments ~params ~count:4 in
  let inner () =
    ignore
      (run ~policy:(P.periodic ~params ~period:3.0) ~horizon:90.0
         (quiet_trace ())
        : E.outcome);
    params.Fault.Params.c
  in
  let nested =
    run ~ckpt_sampler:inner ~policy ~horizon:100.0 (quiet_trace ())
  in
  let plain = run ~policy ~horizon:100.0 (quiet_trace ()) in
  close "same work" plain.E.work_saved nested.E.work_saved;
  Alcotest.(check int) "same checkpoints" plain.E.checkpoints
    nested.E.checkpoints

let test_malformed_policy_rejected () =
  let bad =
    P.make ~name:"bad" (fun p ~tleft ~recovering:_ ->
        Plans.fill p [ tleft +. 50.0 ])
  in
  match run ~policy:bad ~horizon:100.0 (quiet_trace ()) with
  | _ -> Alcotest.fail "malformed plan accepted"
  | exception Invalid_argument _ -> ()

(* Platform events (malleable platforms) *)

let breakdown_sum (b : E.breakdown) =
  b.E.working +. b.E.checkpointing +. b.E.recovering +. b.E.down +. b.E.lost
  +. b.E.unused

let test_platform_event_interrupts_plan () =
  (* single_final on 100 plans one checkpoint completing at 100; losing
     8 of 16 nodes at wall 40 interrupts it. The static policy has no
     adapt hook, so the engine re-queries the same plan closure: the
     abandoned span [0, 40] lands in unused, the new plan saves
     60 - C = 50. *)
  let platform =
    {
      E.initial = 16;
      events = [ T.Node_lost { at = 40.0; survivors = 8 } ];
    }
  in
  let outcome =
    E.run ~record:true ~platform ~params ~horizon:100.0
      ~policy:(P.single_final ~params) (quiet_trace ())
  in
  close "work saved after the interrupt" 50.0 outcome.E.work_saved;
  Alcotest.(check int) "one platform re-plan" 1 outcome.E.replans_platform;
  Alcotest.(check int) "two plans total" 2 outcome.E.replans;
  close "abandoned span is unused" 40.0 outcome.E.breakdown.E.unused;
  close "breakdown sums to horizon" 100.0 (breakdown_sum outcome.E.breakdown);
  match
    List.find_opt
      (function E.Platform_change _ -> true | _ -> false)
      outcome.E.events
  with
  | Some (E.Platform_change { at; survivors }) ->
      close "event date" 40.0 at;
      Alcotest.(check int) "survivors" 8 survivors
  | _ -> Alcotest.fail "no Platform_change event recorded"

let test_platform_event_degrades_adaptive_policy () =
  (* An adaptive policy's hook must receive the params degraded with
     the scale_platform convention: λ · survivors / initial. *)
  let seen = ref [] in
  let rec adaptive params =
    P.set_adapt (P.single_final ~params) (fun params' ->
        seen := params'.Fault.Params.lambda :: !seen;
        adaptive params')
  in
  let platform =
    {
      E.initial = 16;
      events =
        [
          T.Node_lost { at = 30.0; survivors = 8 };
          T.Node_joined { at = 60.0; survivors = 12 };
        ];
    }
  in
  let outcome =
    E.run ~platform ~params ~horizon:100.0 ~policy:(adaptive params)
      (quiet_trace ())
  in
  Alcotest.(check int) "two platform re-plans" 2 outcome.E.replans_platform;
  Alcotest.(check (list (float 0.0))) "degraded rates, in order"
    [ 0.001 *. 8.0 /. 16.0; 0.001 *. 12.0 /. 16.0 ]
    (List.rev !seen)

let test_platform_empty_events_bit_identical () =
  let trace () = T.of_iats [| 50.0; 1.0e9 |] in
  let baseline =
    E.run ~params ~horizon:100.0 ~policy:(P.single_final ~params) (trace ())
  in
  let with_platform =
    E.run
      ~platform:{ E.initial = 16; events = [] }
      ~params ~horizon:100.0 ~policy:(P.single_final ~params) (trace ())
  in
  Alcotest.(check bool) "outcomes bit-identical" true
    (baseline = with_platform);
  Alcotest.(check int) "no platform re-plan" 0 with_platform.E.replans_platform

let test_platform_event_past_horizon_ignored () =
  let trace () = T.of_iats [| 50.0; 1.0e9 |] in
  let baseline =
    E.run ~params ~horizon:100.0 ~policy:(P.single_final ~params) (trace ())
  in
  let with_platform =
    E.run
      ~platform:
        { E.initial = 16; events = [ T.Node_lost { at = 150.0; survivors = 8 } ] }
      ~params ~horizon:100.0 ~policy:(P.single_final ~params) (trace ())
  in
  Alcotest.(check bool) "outcome unchanged" true (baseline = with_platform);
  Alcotest.(check int) "event never processed" 0
    with_platform.E.replans_platform

let test_platform_event_during_downtime_deferred () =
  (* Failure at wall 50, downtime until 55; the event at 52 must take
     effect at the post-downtime re-plan, not interrupt the downtime.
     The plan and its accounting match the plain recover-after-failure
     case (the policy is static), with one platform re-plan counted. *)
  let trace = T.of_iats [| 50.0; 1.0e9 |] in
  let outcome =
    E.run
      ~platform:
        { E.initial = 16; events = [ T.Node_lost { at = 52.0; survivors = 8 } ] }
      ~params ~horizon:100.0 ~policy:(P.single_final ~params) trace
  in
  close "saved as in the failure-only case" 27.0 outcome.E.work_saved;
  Alcotest.(check int) "event processed after the downtime" 1
    outcome.E.replans_platform;
  close "breakdown sums to horizon" 100.0 (breakdown_sum outcome.E.breakdown)

(* Predictions (fault-prediction extension) *)

let accept_all = P.set_on_prediction (P.single_final ~params) (fun ~tleft:_ ~since_commit:_ ~window:_ -> true)

let pred ?(window = 20.0) ?(true_positive = false) at =
  { Fault.Predictor.at; window; true_positive }

let test_prediction_proactive_banks_work () =
  (* Quiet trace, horizon 100, single final checkpoint at 100 (work 90).
     A false alarm at exposed 40 triggers a proactive checkpoint: 40
     units banked, 10 spent checkpointing, re-plan saves 50 - 10 = 40
     more. The proactive commit costs exactly one extra C. *)
  let outcome =
    E.run ~record:true ~predictions:[ pred 40.0 ] ~params ~horizon:100.0
      ~policy:accept_all (quiet_trace ())
  in
  close "banked plus re-planned" 80.0 outcome.E.work_saved;
  Alcotest.(check int) "two checkpoints" 2 outcome.E.checkpoints;
  Alcotest.(check int) "one proactive" 1 outcome.E.proactive_checkpoints;
  Alcotest.(check int) "one false alarm" 1 outcome.E.predictions_false;
  Alcotest.(check int) "no true positive" 0 outcome.E.predictions_true;
  Alcotest.(check int) "re-planned after the commit" 2 outcome.E.replans;
  close "working share" 80.0 outcome.E.breakdown.E.working;
  close "checkpointing share" 20.0 outcome.E.breakdown.E.checkpointing;
  close "breakdown sums to horizon" 100.0 (breakdown_sum outcome.E.breakdown);
  (match outcome.E.events with
  | E.Prediction { at; true_positive } :: E.Segment_saved { work; finish; _ } :: _ ->
      close "fired at 40" 40.0 at;
      Alcotest.(check bool) "false alarm" false true_positive;
      close "banked 40" 40.0 work;
      close "committed at 50" 50.0 finish
  | _ -> Alcotest.fail "expected Prediction then Segment_saved")

let test_prediction_averts_failure () =
  (* Failure at exposed 60, announced at 45 (window 15, true positive).
     Unpredicted single-final loses everything at 60 and salvages
     35 - R - C = 17. Predicted: bank 45 at the firing date, lose only
     the 5 units since that commit, then the same 17-unit tail. *)
  let trace () = T.of_iats [| 60.0; 1.0e9 |] in
  let baseline =
    E.run ~params ~horizon:100.0 ~policy:(P.single_final ~params) (trace ())
  in
  close "unpredicted salvage" 17.0 baseline.E.work_saved;
  let outcome =
    E.run
      ~predictions:[ pred ~window:15.0 ~true_positive:true 45.0 ]
      ~params ~horizon:100.0 ~policy:accept_all (trace ())
  in
  close "banked before the fault" 62.0 outcome.E.work_saved;
  Alcotest.(check int) "one true positive" 1 outcome.E.predictions_true;
  Alcotest.(check int) "one proactive" 1 outcome.E.proactive_checkpoints;
  Alcotest.(check int) "still one failure" 1 outcome.E.failures;
  close "only the post-commit span is lost" 5.0 outcome.E.breakdown.E.lost;
  close "breakdown sums to horizon" 100.0 (breakdown_sum outcome.E.breakdown)

let test_prediction_failure_during_proactive_ckpt () =
  (* Announced too late: the proactive checkpoint starting at 55 needs
     C = 10 but the fault lands at 60. Everything since the last commit
     is lost, exactly as in the unpredicted run, and the incomplete
     proactive checkpoint counts nowhere. *)
  let trace = T.of_iats [| 60.0; 1.0e9 |] in
  let outcome =
    E.run
      ~predictions:[ pred ~window:5.0 ~true_positive:true 55.0 ]
      ~params ~horizon:100.0 ~policy:accept_all trace
  in
  close "same salvage as unpredicted" 17.0 outcome.E.work_saved;
  Alcotest.(check int) "true positive still counted" 1 outcome.E.predictions_true;
  Alcotest.(check int) "no proactive checkpoint completed" 0
    outcome.E.proactive_checkpoints;
  Alcotest.(check int) "one checkpoint (the tail)" 1 outcome.E.checkpoints;
  close "whole span since start lost" 60.0 outcome.E.breakdown.E.lost;
  close "breakdown sums to horizon" 100.0 (breakdown_sum outcome.E.breakdown)

let test_prediction_ignored_is_free () =
  (* A policy without the hook must replay the unpredicted run to the
     last bit on timing, work and breakdown; only the prediction
     counters (and recorded events) register the fired stream. *)
  let trace () = T.of_iats [| 60.0; 1.0e9 |] in
  let baseline =
    E.run ~params ~horizon:100.0 ~policy:(P.single_final ~params) (trace ())
  in
  let ignored =
    E.run
      ~predictions:[ pred ~true_positive:true 20.0; pred 40.0 ]
      ~params ~horizon:100.0 ~policy:(P.single_final ~params) (trace ())
  in
  Alcotest.(check bool) "work bit-identical" true
    (Float.equal baseline.E.work_saved ignored.E.work_saved);
  Alcotest.(check bool) "breakdown bit-identical" true
    (baseline.E.breakdown = ignored.E.breakdown);
  Alcotest.(check int) "checkpoints unchanged" baseline.E.checkpoints
    ignored.E.checkpoints;
  Alcotest.(check int) "replans unchanged" baseline.E.replans ignored.E.replans;
  Alcotest.(check int) "no proactive checkpoint" 0 ignored.E.proactive_checkpoints;
  Alcotest.(check int) "fired true positive counted" 1 ignored.E.predictions_true;
  Alcotest.(check int) "fired false alarm counted" 1 ignored.E.predictions_false

let test_prediction_none_and_empty_bit_identical () =
  let trace () = T.of_iats [| 60.0; 1.0e9 |] in
  let baseline =
    E.run ~params ~horizon:100.0 ~policy:(P.single_final ~params) (trace ())
  in
  let empty =
    E.run ~predictions:[] ~params ~horizon:100.0
      ~policy:(P.single_final ~params) (trace ())
  in
  Alcotest.(check bool) "outcomes structurally equal" true (baseline = empty);
  (* An empty stream is also free for a hooked policy. *)
  let hooked =
    E.run ~predictions:[] ~params ~horizon:100.0 ~policy:accept_all (trace ())
  in
  Alcotest.(check bool) "hooked policy, empty stream" true (baseline = hooked)

let test_prediction_proactive_c () =
  (* A cheap proactive checkpoint (Cp = 2 < C) banks the same work for
     less: 40 banked, 2 spent, re-plan saves 58 - 10 = 48. *)
  let outcome =
    E.run ~predictions:[ pred 40.0 ] ~proactive_c:2.0 ~params ~horizon:100.0
      ~policy:accept_all (quiet_trace ())
  in
  close "cheaper commit" 88.0 outcome.E.work_saved;
  close "checkpointing share" 12.0 outcome.E.breakdown.E.checkpointing;
  close "breakdown sums to horizon" 100.0 (breakdown_sum outcome.E.breakdown);
  Alcotest.check_raises "Cp > C rejected"
    (Invalid_argument "Engine.run: proactive_c must be finite in [0, C]")
    (fun () ->
      ignore
        (E.run ~predictions:[] ~proactive_c:20.0 ~params ~horizon:100.0
           ~policy:accept_all (quiet_trace ())))

let test_prediction_window_hook_decides () =
  (* proactive-window-style hook: accept only tight windows. A wide
     window is ignored at zero cost; a narrow one is taken. *)
  let selective w0 =
    P.set_on_prediction (P.single_final ~params)
      (fun ~tleft:_ ~since_commit:_ ~window -> window <= w0)
  in
  let wide =
    E.run ~predictions:[ pred ~window:50.0 40.0 ] ~params ~horizon:100.0
      ~policy:(selective 30.0) (quiet_trace ())
  in
  close "wide window ignored" 90.0 wide.E.work_saved;
  Alcotest.(check int) "no proactive" 0 wide.E.proactive_checkpoints;
  let narrow =
    E.run ~predictions:[ pred ~window:20.0 40.0 ] ~params ~horizon:100.0
      ~policy:(selective 30.0) (quiet_trace ())
  in
  close "narrow window taken" 80.0 narrow.E.work_saved;
  Alcotest.(check int) "one proactive" 1 narrow.E.proactive_checkpoints

(* Invariants under random traces and policies. *)

let qcheck_tests =
  let gen =
    QCheck.Gen.(
      let* seed = int_bound 1_000_000 in
      let* horizon = float_range 20.0 2000.0 in
      let* count = int_range 1 8 in
      return (seed, horizon, count))
  in
  let arb =
    QCheck.make gen ~print:(fun (s, h, k) ->
        Printf.sprintf "seed=%d horizon=%g count=%d" s h k)
  in
  let outcome_of (seed, horizon, count) policy =
    let trace =
      T.create
        ~dist:(T.Exponential { rate = 0.002 })
        ~seed:(Int64.of_int seed)
    in
    E.run ~params ~horizon ~policy:(policy count) trace
  in
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"work saved within bounds" ~count:1000 arb
         (fun ((_, horizon, _) as case) ->
           let outcome =
             outcome_of case (fun count -> P.equal_segments ~params ~count)
           in
           outcome.E.work_saved >= 0.0
           && outcome.E.work_saved
              <= P.max_work ~params ~tleft:horizon ~recovering:false +. 1e-6));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"periodic policy also within bounds" ~count:500
         arb
         (fun ((_, horizon, _) as case) ->
           let outcome =
             outcome_of case (fun count ->
                 P.periodic ~params ~period:(10.0 *. float_of_int count))
           in
           outcome.E.work_saved >= 0.0
           && outcome.E.work_saved
              <= P.max_work ~params ~tleft:horizon ~recovering:false +. 1e-6));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"same trace, same outcome (replay)" ~count:300
         arb
         (fun ((seed, horizon, count) as _case) ->
           let trace () =
             T.create
               ~dist:(T.Exponential { rate = 0.002 })
               ~seed:(Int64.of_int seed)
           in
           let policy = P.equal_segments ~params ~count in
           let o1 = E.run ~params ~horizon ~policy (trace ()) in
           let o2 = E.run ~params ~horizon ~policy (trace ()) in
           o1.E.work_saved = o2.E.work_saved
           && o1.E.failures = o2.E.failures));
    (let gen =
       QCheck.Gen.(
         let* seed = int_bound 1_000_000 in
         let* horizon = float_range 20.0 2000.0 in
         let* count = int_range 1 8 in
         let* n_events = int_bound 5 in
         let* dates =
           list_repeat n_events (float_range 0.0 (1.2 *. horizon))
         in
         let* survivors = list_repeat n_events (int_range 1 20) in
         let* adaptive = bool in
         let events =
           List.map2
             (fun at survivors -> T.Node_lost { at; survivors })
             (List.sort compare dates)
             survivors
         in
         return (seed, horizon, count, events, adaptive))
     in
     let arb =
       QCheck.make gen ~print:(fun (s, h, k, evs, a) ->
           Printf.sprintf "seed=%d horizon=%g count=%d events=[%s] adaptive=%b"
             s h k
             (String.concat "; "
                (List.map
                   (fun e ->
                     Printf.sprintf "%g->%d" (T.event_at e)
                       (T.event_survivors e))
                   evs))
             a)
     in
     QCheck_alcotest.to_alcotest
       (QCheck.Test.make
          ~name:"breakdown sums to horizon under platform events" ~count:500
          arb
          (fun (seed, horizon, count, events, adaptive) ->
            let trace =
              T.create
                ~dist:(T.Exponential { rate = 0.002 })
                ~seed:(Int64.of_int seed)
            in
            let rec adaptive_policy params =
              P.set_adapt
                (P.equal_segments ~params ~count)
                (fun params' -> adaptive_policy params')
            in
            let policy =
              if adaptive then adaptive_policy params
              else P.equal_segments ~params ~count
            in
            let outcome =
              E.run
                ~platform:{ E.initial = 16; events }
                ~params ~horizon ~policy trace
            in
            let b = outcome.E.breakdown in
            Float.abs (breakdown_sum b -. horizon) <= 1e-6 *. horizon
            && b.E.working >= 0.0 && b.E.checkpointing >= 0.0
            && b.E.recovering >= 0.0 && b.E.down >= 0.0 && b.E.lost >= 0.0
            && b.E.unused >= 0.0)));
    (let gen =
       QCheck.Gen.(
         let* seed = int_bound 1_000_000 in
         let* horizon = float_range 20.0 2000.0 in
         let* count = int_range 1 8 in
         let* n_preds = int_bound 6 in
         let* dates =
           list_repeat n_preds (float_range 0.0 (1.2 *. horizon))
         in
         let* windows = list_repeat n_preds (float_range 0.0 50.0) in
         let* tps = list_repeat n_preds bool in
         let* hooked = bool in
         let* cp = float_range 0.0 params.Fault.Params.c in
         let preds =
           List.map2
             (fun (at, window) true_positive ->
               { Fault.Predictor.at; window; true_positive })
             (List.combine (List.sort compare dates) windows)
             tps
         in
         return (seed, horizon, count, preds, hooked, cp))
     in
     let arb =
       QCheck.make gen ~print:(fun (s, h, k, preds, hooked, cp) ->
           Printf.sprintf
             "seed=%d horizon=%g count=%d preds=[%s] hooked=%b cp=%g" s h k
             (String.concat "; "
                (List.map
                   (fun e ->
                     Printf.sprintf "%g(w=%g,%b)" e.Fault.Predictor.at
                       e.Fault.Predictor.window e.Fault.Predictor.true_positive)
                   preds))
             hooked cp)
     in
     QCheck_alcotest.to_alcotest
       (QCheck.Test.make
          ~name:"breakdown sums to horizon under random prediction schedules"
          ~count:500 arb
          (fun (seed, horizon, count, preds, hooked, cp) ->
            let trace =
              T.create
                ~dist:(T.Exponential { rate = 0.002 })
                ~seed:(Int64.of_int seed)
            in
            let base = P.equal_segments ~params ~count in
            let policy =
              if hooked then
                P.set_on_prediction base
                  (fun ~tleft:_ ~since_commit:_ ~window -> window <= 25.0)
              else base
            in
            let outcome =
              E.run ~predictions:preds ~proactive_c:cp ~params ~horizon
                ~policy trace
            in
            let b = outcome.E.breakdown in
            Float.abs (breakdown_sum b -. horizon) <= 1e-6 *. horizon
            && b.E.working >= 0.0 && b.E.checkpointing >= 0.0
            && b.E.recovering >= 0.0 && b.E.down >= 0.0 && b.E.lost >= 0.0
            && b.E.unused >= 0.0
            && outcome.E.proactive_checkpoints <= outcome.E.checkpoints
            && outcome.E.predictions_true + outcome.E.predictions_false
               <= List.length preds)));
  ]

let () =
  Alcotest.run "engine"
    [
      ( "failure-free",
        [
          Alcotest.test_case "single checkpoint" `Quick test_no_failure_single;
          Alcotest.test_case "equal segments" `Quick test_no_failure_periodic;
        ] );
      ( "failures",
        [
          Alcotest.test_case "recover after losing everything" `Quick
            test_failure_before_first_ckpt_then_recover;
          Alcotest.test_case "failure too late to recover" `Quick
            test_failure_too_late_to_recover;
          Alcotest.test_case "committed work survives" `Quick
            test_committed_work_survives_failure;
          Alcotest.test_case "downtime is not exposed" `Quick
            test_downtime_not_exposed;
          Alcotest.test_case "give up under hammering" `Quick
            test_multiple_failures_give_up;
        ] );
      ( "events",
        [
          Alcotest.test_case "chronological" `Quick test_events_chronological;
          Alcotest.test_case "off by default" `Quick test_no_events_without_record;
        ] );
      ( "stochastic checkpoints",
        [
          Alcotest.test_case "overrun loses the tail" `Quick
            test_stochastic_checkpoint_shifts;
          Alcotest.test_case "late failure clamps downtime" `Quick
            test_late_failure_downtime_clamped;
          Alcotest.test_case "late failure draws no further IAT" `Quick
            test_late_failure_draws_no_further_iat;
          Alcotest.test_case "shorter checkpoints keep the plan" `Quick
            test_stochastic_checkpoint_shorter;
        ] );
      ( "platform events",
        [
          Alcotest.test_case "event interrupts the plan" `Quick
            test_platform_event_interrupts_plan;
          Alcotest.test_case "adaptive policy gets degraded params" `Quick
            test_platform_event_degrades_adaptive_policy;
          Alcotest.test_case "empty events are bit-identical" `Quick
            test_platform_empty_events_bit_identical;
          Alcotest.test_case "event past horizon ignored" `Quick
            test_platform_event_past_horizon_ignored;
          Alcotest.test_case "event during downtime deferred" `Quick
            test_platform_event_during_downtime_deferred;
        ] );
      ( "predictions",
        [
          Alcotest.test_case "proactive checkpoint banks work" `Quick
            test_prediction_proactive_banks_work;
          Alcotest.test_case "true positive averts a failure" `Quick
            test_prediction_averts_failure;
          Alcotest.test_case "failure during the proactive checkpoint" `Quick
            test_prediction_failure_during_proactive_ckpt;
          Alcotest.test_case "ignored predictions are free" `Quick
            test_prediction_ignored_is_free;
          Alcotest.test_case "absent and empty streams bit-identical" `Quick
            test_prediction_none_and_empty_bit_identical;
          Alcotest.test_case "cheap proactive checkpoints" `Quick
            test_prediction_proactive_c;
          Alcotest.test_case "window hook decides" `Quick
            test_prediction_window_hook_decides;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "proportion of work" `Quick test_proportion_metric;
          Alcotest.test_case "malformed policies rejected" `Quick
            test_malformed_policy_rejected;
          Alcotest.test_case "non-finite horizon rejected" `Quick
            test_non_finite_horizon_rejected;
          Alcotest.test_case "nested run keeps the outer plan" `Quick
            test_nested_run_keeps_outer_plan;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "paper strategies stay off the minor heap" `Quick
            test_minor_words_per_run;
        ] );
      ("properties", qcheck_tests);
    ]
