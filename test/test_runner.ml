(* Tests for Sim.Runner: aggregation correctness against a manual
   engine loop, input checks, the fold's allocation, and
   common-random-number behaviour. *)

module R = Sim.Runner
module E = Sim.Engine
module P = Sim.Policy
module T = Fault.Trace

let close ?(eps = 1e-9) = Alcotest.(check (float eps))

let params = Fault.Params.make ~lambda:0.002 ~c:10.0 ~r:10.0 ~d:0.0
let horizon = 300.0
let policy = P.equal_segments ~params ~count:2

let traces () =
  T.batch ~dist:(T.Exponential { rate = 0.002 }) ~seed:55L ~n:500

let test_matches_manual_loop () =
  (* Replay manually: traces are replayable, so the same set can be
     consumed twice. *)
  let check trace_set =
    let n = Array.length trace_set in
    let result = R.evaluate ~params ~horizon ~policy trace_set in
    let manual_work = ref 0.0 and manual_failures = ref 0 in
    Array.iter
      (fun trace ->
        let o = E.run ~params ~horizon ~policy trace in
        manual_work := !manual_work +. o.E.work_saved;
        manual_failures := !manual_failures + o.E.failures)
      trace_set;
    close ~eps:1e-9 "mean work" (!manual_work /. float_of_int n) result.R.mean_work;
    close ~eps:1e-9 "mean failures"
      (float_of_int !manual_failures /. float_of_int n)
      result.R.mean_failures;
    Alcotest.(check int) "trace count" n result.R.traces;
    Alcotest.(check string) "policy name" "Equal(2)" result.R.policy;
    result
  in
  ignore (check (traces ()) : R.result);
  (* No failures: every trace yields the same proportion. *)
  let quiet = check (Array.init 20 (fun _ -> T.of_iats [| 1.0e9 |])) in
  let expected = (300.0 -. 20.0) /. (300.0 -. 10.0) in
  close "no-failure proportion" expected quiet.R.proportion.Numerics.Stats.mean;
  close "zero spread" 0.0 quiet.R.proportion.Numerics.Stats.stddev

let test_common_random_numbers () =
  (* Two policies evaluated on the same trace array face identical
     failures: the difference of means has much lower variance than
     independent draws would give. Check determinism of the pairing:
     repeating the evaluation yields bit-identical results. *)
  let trace_set = traces () in
  let a1 = R.evaluate ~params ~horizon ~policy trace_set in
  let better = P.equal_segments ~params ~count:3 in
  let b1 = R.evaluate ~params ~horizon ~policy:better trace_set in
  let a2 = R.evaluate ~params ~horizon ~policy trace_set in
  close ~eps:0.0 "replay identical" a1.R.mean_work a2.R.mean_work;
  (* and the two policies genuinely saw the same failures *)
  close ~eps:0.0 "same failure count across policies" a1.R.mean_failures
    b1.R.mean_failures

let test_empty_rejected () =
  let rejected name msg f =
    Alcotest.check_raises name (Invalid_argument msg) (fun () ->
        ignore (f () : R.result))
  in
  let trace_set = Array.sub (traces ()) 0 3 in
  rejected "no traces" "Runner.evaluate: no traces" (fun () ->
      R.evaluate ~params ~horizon ~policy [||]);
  rejected "short platforms"
    "Runner.evaluate: platforms and traces length mismatch" (fun () ->
      R.evaluate
        ~platforms:(Array.make 2 { E.initial = 1; events = [] })
        ~params ~horizon ~policy trace_set);
  rejected "short predictions"
    "Runner.evaluate: predictions and traces length mismatch" (fun () ->
      R.evaluate ~predictions:(Array.make 2 []) ~params ~horizon ~policy
        trace_set)

(* Allocation pin: the fold keeps a Welford accumulator and six totals,
   so it adds a few words per trace to the engine runs it makes (6 on
   this input). A per-sample buffer sorted into quantiles adds ~80. *)
let test_fold_allocation () =
  let params = Fault.Params.make ~lambda:0.001 ~c:10.0 ~r:10.0 ~d:0.0 in
  let horizon = 1000.0 and n = 1000 in
  let policy = P.equal_segments ~params ~count:4 in
  let trace_set = T.batch ~dist:(T.Exponential { rate = 0.001 }) ~seed:3L ~n in
  Array.iter (fun tr -> T.prefetch tr ~until:horizon) trace_set;
  (* The first run sizes this domain's plan buffer. *)
  ignore (E.run ~params ~horizon ~policy trace_set.(0) : E.outcome);
  let w0 = Gc.minor_words () in
  for i = 0 to n - 1 do
    ignore (E.run ~params ~horizon ~policy trace_set.(i) : E.outcome)
  done;
  let w1 = Gc.minor_words () in
  ignore (R.evaluate ~params ~horizon ~policy trace_set : R.result);
  let w2 = Gc.minor_words () in
  let added = ((w2 -. w1) -. (w1 -. w0)) /. float_of_int n in
  if added > 32.0 then
    Alcotest.failf "fold adds %.1f minor words per trace (bound 32)" added

let () =
  Alcotest.run "runner"
    [
      ( "aggregation",
        [
          Alcotest.test_case "matches manual loop" `Quick test_matches_manual_loop;
          Alcotest.test_case "common random numbers" `Quick
            test_common_random_numbers;
          Alcotest.test_case "empty rejected" `Quick test_empty_rejected;
          Alcotest.test_case "fold allocation" `Quick test_fold_allocation;
        ] );
    ]
