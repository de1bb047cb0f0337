(* Tests for Core.Dp, the optimal dynamic program: consistency with the
   independent quantised policy evaluator, optimality against every other
   strategy, invariance under the kmax cap, and the executable policy. *)

module Dp = Core.Dp
module P = Fault.Params

let close ?(eps = 1e-9) = Alcotest.(check (float eps))

let params = P.paper ~lambda:0.002 ~c:10.0 ~d:5.0

let build ?kmax ?(params = params) ?(quantum = 1.0) ~horizon () =
  Dp.build ?kmax ~params ~quantum ~horizon ()

let test_zero_when_nothing_fits () =
  let dp = build ~horizon:100.0 () in
  close "below C" 0.0 (Dp.expected_work dp ~tleft:9.0);
  Alcotest.(check int) "no checkpoint" 0 (Dp.best_k dp ~n:9 ~delta:false);
  close "E(n,1,1) zero below R+C" 0.0
    (Dp.expected_work_q dp ~n:19 ~k:1 ~delta:true)

let test_upper_bound () =
  let dp = build ~horizon:500.0 () in
  for n = 1 to 500 do
    let v = Dp.best_expected_work_q dp ~n ~delta:false in
    let bound = Float.max 0.0 (float_of_int n -. params.P.c) in
    if v > bound +. 1e-9 then
      Alcotest.failf "E(%d) = %g exceeds bound %g" n v bound
  done

let test_monotone_in_n () =
  let dp = build ~horizon:500.0 () in
  let prev = ref 0.0 in
  for n = 1 to 500 do
    let v = Dp.best_expected_work_q dp ~n ~delta:false in
    if v < !prev -. 1e-9 then
      Alcotest.failf "optimal value decreased at n=%d: %g < %g" n v !prev;
    prev := v
  done

let test_delta_costs_recovery () =
  let dp = build ~horizon:400.0 () in
  for n = 50 to 400 do
    let v0 = Dp.best_expected_work_q dp ~n ~delta:false in
    let v1 = Dp.best_expected_work_q dp ~n ~delta:true in
    if v1 > v0 +. 1e-9 then
      Alcotest.failf "recovery start better at n=%d" n
  done

let test_matches_policy_evaluator () =
  (* The DP value and the independent quantised evaluator applied to the
     DP policy must agree essentially exactly: they discretise the same
     model. *)
  List.iter
    (fun (lambda, c, d, horizon) ->
      let params = P.paper ~lambda ~c ~d in
      let dp = Dp.build ~params ~quantum:1.0 ~horizon () in
      let v_dp = Dp.expected_work dp ~tleft:horizon in
      let v_eval =
        Core.Expected.policy_value ~params ~quantum:1.0 ~horizon
          ~policy:(Dp.policy dp)
      in
      close ~eps:1e-6
        (Printf.sprintf "λ=%g C=%g D=%g T=%g" lambda c d horizon)
        v_dp v_eval)
    [
      (0.002, 10.0, 5.0, 300.0);
      (0.001, 20.0, 0.0, 500.0);
      (0.01, 10.0, 0.0, 200.0);
      (0.01, 40.0, 5.0, 400.0);
    ]

let test_dominates_other_policies () =
  (* Optimality on the quantised model: no other (quantum-aligned)
     strategy may beat the DP value. *)
  let horizon = 500.0 in
  let dp = build ~horizon () in
  let v_dp = Dp.expected_work dp ~tleft:horizon in
  List.iter
    (fun (name, policy) ->
      let v =
        Core.Expected.policy_value ~params ~quantum:1.0 ~horizon ~policy
      in
      if v > v_dp +. 1e-6 then
        Alcotest.failf "%s achieves %g > DP %g" name v v_dp)
    [
      ("SingleFinal", Sim.Policy.single_final ~params);
      ("Equal(2)", Sim.Policy.equal_segments ~params ~count:2);
      ("Equal(3)", Sim.Policy.equal_segments ~params ~count:3);
      ("Equal(5)", Sim.Policy.equal_segments ~params ~count:5);
      ("YoungDaly", Core.Policies.young_daly ~params);
      ("NumericalOptimum", Core.Policies.numerical_optimum ~params ~horizon);
      ("FirstOrder", Core.Policies.first_order ~params ~horizon);
      ("Two(0.45)", Sim.Policy.two_checkpoints ~params ~alpha:0.45);
    ]

let test_k1_matches_exhaustive_search () =
  (* For k = 1 the DP reduces to choosing the single checkpoint position;
     compare with an explicit exhaustive computation of
     max_i [ P(i) (i - C) + sum_f p_f E(n - f - D, 1, 1) ] built
     independently (recursive, memoised). *)
  let lambda = 0.01 and c = 5.0 and d = 2.0 in
  let params = P.paper ~lambda ~c ~d in
  let horizon = 80.0 in
  let dp = Dp.build ~params ~quantum:1.0 ~horizon () in
  let cq = 5 and rq = 5 and dq = 2 in
  let psucc i = exp (-.lambda *. float_of_int i) in
  let p f = psucc (f - 1) -. psucc f in
  let memo1 = Array.make 81 nan in
  (* e1 n = optimal single-checkpoint value starting with recovery *)
  let rec e1 n =
    if n < 0 then 0.0
    else if not (Float.is_nan memo1.(n)) then memo1.(n)
    else begin
      let best = ref 0.0 in
      for i = rq + cq + 1 to n do
        let acc = ref (psucc i *. float_of_int (i - cq - rq)) in
        for f = 1 to i do
          acc := !acc +. (p f *. e1 (n - f - dq))
        done;
        if !acc > !best then best := !acc
      done;
      memo1.(n) <- !best;
      !best
    end
  in
  let e0 n =
    let best = ref 0.0 in
    for i = cq + 1 to n do
      let acc = ref (psucc i *. float_of_int (i - cq)) in
      for f = 1 to i do
        acc := !acc +. (p f *. e1 (n - f - dq))
      done;
      if !acc > !best then best := !acc
    done;
    !best
  in
  for n = 1 to 80 do
    close ~eps:1e-9
      (Printf.sprintf "E(%d, 1, 0)" n)
      (e0 n)
      (Dp.expected_work_q dp ~n ~k:1 ~delta:false);
    close ~eps:1e-9
      (Printf.sprintf "E(%d, 1, 1)" n)
      (e1 n)
      (Dp.expected_work_q dp ~n ~k:1 ~delta:true)
  done

let test_kmax_cap_invariant () =
  (* A generous cap must not change the optimum. *)
  let horizon = 400.0 in
  let full = build ~horizon () in
  let capped = build ~kmax:(Dp.suggested_kmax ~params ~horizon) ~horizon () in
  for n = 1 to 400 do
    close ~eps:1e-9
      (Printf.sprintf "n=%d" n)
      (Dp.best_expected_work_q full ~n ~delta:false)
      (Dp.best_expected_work_q capped ~n ~delta:false)
  done

let test_plans_are_valid () =
  let horizon = 600.0 in
  let dp = build ~horizon () in
  let policy = Dp.policy dp in
  List.iter
    (fun tleft ->
      Sim.Policy.validate_plan ~params ~tleft ~recovering:false
        (Plans.buffer policy ~tleft ~recovering:false))
    [ 600.0; 543.0; 200.0; 50.0; 11.0; 9.0 ]

let test_plan_unroll_consistent_with_tables () =
  let horizon = 500.0 in
  let dp = build ~horizon () in
  let n = 500 in
  let k = Dp.best_k dp ~n ~delta:false in
  let plan = Dp.plan_q dp ~n ~k ~delta:false in
  Alcotest.(check int) "plan has k checkpoints" k (List.length plan);
  (* completion times increasing, last within n *)
  let rec check prev = function
    | [] -> ()
    | q :: rest ->
        Alcotest.(check bool) "increasing" true (q > prev);
        Alcotest.(check bool) "within horizon" true (q <= n);
        check q rest
  in
  check 0 plan

let test_policy_statefulness_after_failure () =
  (* After a failure the DP policy must re-plan with at most the
     remaining number of checkpoints (Equation (8)): drive the policy
     through the engine on a crafted trace and check every re-plan is
     still valid and the outcome matches a fresh replay. *)
  let horizon = 500.0 in
  let dp = build ~horizon () in
  let trace () = Fault.Trace.of_iats [| 260.0; 100.0; 1.0e9 |] in
  let o1 =
    Sim.Engine.run ~params ~horizon ~policy:(Dp.policy dp) (trace ())
  in
  let o2 =
    Sim.Engine.run ~params ~horizon ~policy:(Dp.policy dp) (trace ())
  in
  close "reproducible across fresh policies" o1.Sim.Engine.work_saved
    o2.Sim.Engine.work_saved;
  Alcotest.(check bool) "some work saved" true (o1.Sim.Engine.work_saved > 0.0);
  Alcotest.(check int) "two failures" 2 o1.Sim.Engine.failures

let test_policy_reusable_across_traces () =
  (* The same policy value is reused for a whole batch by Runner: state
     must reset at each fresh reservation (first call has
     recovering=false). *)
  let horizon = 300.0 in
  let dp = build ~horizon () in
  let policy = Dp.policy dp in
  let t1 = Fault.Trace.of_iats [| 100.0; 1.0e9 |] in
  let t2 = Fault.Trace.of_iats [| 100.0; 1.0e9 |] in
  let o1 = Sim.Engine.run ~params ~horizon ~policy t1 in
  let o2 = Sim.Engine.run ~params ~horizon ~policy t2 in
  close "same trace, same result through shared policy"
    o1.Sim.Engine.work_saved o2.Sim.Engine.work_saved

let test_monte_carlo_agreement () =
  (* The simulated mean must approach the DP expectation (continuous
     failures vs quantised model: agreement within CI + small bias). *)
  let horizon = 400.0 in
  let dp = build ~horizon () in
  let traces =
    Fault.Trace.batch
      ~dist:(Fault.Trace.Exponential { rate = params.P.lambda })
      ~seed:123L ~n:50_000
  in
  let r =
    Sim.Runner.evaluate ~params ~horizon ~policy:(Dp.policy dp) traces
  in
  let mc = r.Sim.Runner.mean_work in
  let ci =
    r.Sim.Runner.proportion.Numerics.Stats.ci95_half_width
    *. (horizon -. params.P.c)
  in
  let v = Dp.expected_work dp ~tleft:horizon in
  Alcotest.(check bool)
    (Printf.sprintf "DP %.2f vs MC %.2f ± %.2f" v mc ci)
    true
    (abs_float (v -. mc) < ci +. 2.0)

let test_quantum_refinement () =
  (* A finer quantum can only help (richer strategy space), up to noise:
     E_opt(u=0.5) >= E_opt(u=2) - epsilon; and values converge. *)
  let horizon = 300.0 in
  let value quantum =
    let dp = build ~quantum ~horizon () in
    Dp.expected_work dp ~tleft:horizon
  in
  let coarse = value 2.0 and mid = value 1.0 and fine = value 0.5 in
  (* The strategy space is nested, but the failure discretisation also
     changes with u, so allow a small model tolerance. *)
  Alcotest.(check bool) "finer >= coarser (up to model tolerance)" true
    (fine >= mid -. 0.2 && mid >= coarse -. 0.2);
  Alcotest.(check bool) "values converge" true
    (abs_float (fine -. mid) <= abs_float (mid -. coarse) +. 0.5)

let test_last_checkpoint_can_end_early () =
  (* For failure-heavy settings the DP may place its last checkpoint
     strictly before the end (Section 4.2's insight); verify on an
     extreme configuration that the freedom exists and is exercised. *)
  let params = P.make ~lambda:0.5 ~c:4.0 ~r:4.0 ~d:0.0 in
  let dp = Dp.build ~params ~quantum:1.0 ~horizon:10.0 () in
  let n = 10 in
  let k = Dp.best_k dp ~n ~delta:false in
  Alcotest.(check bool) "uses one checkpoint" true (k >= 1);
  let plan = Dp.plan_q dp ~n ~k ~delta:false in
  let last = List.fold_left max 0 plan in
  Alcotest.(check bool)
    (Printf.sprintf "last checkpoint at %d < 10" last)
    true (last < n)

(* The pre-Bigarray table builder, kept verbatim as an executable
   specification: the flat-table core with the merged delta=0/delta=1
   inner loop must reproduce every cell of these boxed tables exactly
   (same additions in the same order, so equality is bitwise, not
   approximate). *)
module Reference = struct
  type t = {
    tstar : int;
    kmax : int;
    e0 : float array array;
    e1 : float array array;
    ib0 : int array array;
    ib1 : int array array;
    argm1 : int array array;
    bestk0 : int array;
  }

  let quanta_round x ~u = int_of_float (Float.round (x /. u))

  let build ?kmax ~params ~quantum ~horizon () =
    let open Fault.Params in
    let u = quantum in
    let tstar = int_of_float (floor ((horizon /. u) +. 1e-9)) in
    let cq = max 1 (quanta_round params.c ~u) in
    let rq = max 0 (quanta_round params.r ~u) in
    let dq = max 0 (quanta_round params.d ~u) in
    let kmax_exact = max 1 (tstar / cq) in
    let kmax =
      match kmax with None -> kmax_exact | Some k -> min k kmax_exact
    in
    let lam = params.lambda in
    let psucc =
      Array.init (tstar + 1) (fun i -> exp (-.lam *. float_of_int i *. u))
    in
    let p = Array.make (tstar + 1) 0.0 in
    for f = 1 to tstar do
      p.(f) <- psucc.(f - 1) -. psucc.(f)
    done;
    let mk_f () = Array.init (kmax + 1) (fun _ -> Array.make (tstar + 1) 0.0) in
    let mk_i () = Array.init (kmax + 1) (fun _ -> Array.make (tstar + 1) 0) in
    let e0 = mk_f () and e1 = mk_f () in
    let ib0 = mk_i () and ib1 = mk_i () in
    let argm1 = mk_i () in
    let bestv = Array.make (tstar + 1) 0.0 in
    let argv = Array.make (tstar + 1) 0 in
    for k = 1 to kmax do
      let e0k = e0.(k)
      and e1k = e1.(k)
      and ib0k = ib0.(k)
      and ib1k = ib1.(k) in
      let cont = if k >= 2 then e0.(k - 1) else [||] in
      for n = 1 to tstar do
        let solve ~delta =
          let base = if delta then rq else 0 in
          let ilo = base + cq + 1 in
          let ihi = if k >= 2 then n - ((k - 1) * cq) else n in
          if ihi < ilo then (0.0, 0)
          else begin
            let running = ref 0.0 in
            for f = 1 to ilo - 1 do
              let n' = n - f - dq in
              if n' >= 1 then running := !running +. (p.(f) *. bestv.(n'))
            done;
            let best = ref 0.0 and besti = ref 0 in
            for i = ilo to ihi do
              let n' = n - i - dq in
              if n' >= 1 then running := !running +. (p.(i) *. bestv.(n'));
              let continuation = if k >= 2 then cont.(n - i) else 0.0 in
              let work = float_of_int (i - cq - base) in
              let cand = (psucc.(i) *. (work +. continuation)) +. !running in
              if cand > !best then begin
                best := cand;
                besti := i
              end
            done;
            (!best, !besti)
          end
        in
        let v1, i1 = solve ~delta:true in
        e1k.(n) <- v1;
        ib1k.(n) <- i1;
        let v0, i0 = solve ~delta:false in
        e0k.(n) <- v0;
        ib0k.(n) <- i0;
        if v1 > bestv.(n) then begin
          bestv.(n) <- v1;
          argv.(n) <- k
        end
      done;
      Array.blit argv 0 argm1.(k) 0 (tstar + 1)
    done;
    let bestk0 = Array.make (tstar + 1) 0 in
    let beste0 = Array.make (tstar + 1) 0.0 in
    for k = 1 to kmax do
      for n = 1 to tstar do
        if e0.(k).(n) > beste0.(n) then begin
          beste0.(n) <- e0.(k).(n);
          bestk0.(n) <- k
        end
      done
    done;
    { tstar; kmax; e0; e1; ib0; ib1; argm1; bestk0 }
end

let test_flat_tables_match_reference () =
  List.iter
    (fun (lambda, c, d, quantum, horizon, kmax) ->
      let params = P.paper ~lambda ~c ~d in
      let label =
        Printf.sprintf "λ=%g C=%g D=%g u=%g T=%g" lambda c d quantum horizon
      in
      let dp = Dp.build ?kmax ~params ~quantum ~horizon () in
      let r = Reference.build ?kmax ~params ~quantum ~horizon () in
      Alcotest.(check int) (label ^ " kmax") r.Reference.kmax (Dp.kmax dp);
      Alcotest.(check int)
        (label ^ " tstar") r.Reference.tstar
        (Dp.horizon_quanta dp);
      for k = 1 to r.Reference.kmax do
        for n = 0 to r.Reference.tstar do
          let cell what want got =
            if not (Float.equal want got) then
              Alcotest.failf "%s: %s(%d, %d) = %h, reference %h" label what k n
                got want
          in
          cell "e0"
            (r.Reference.e0.(k).(n) *. quantum)
            (Dp.expected_work_q dp ~n ~k ~delta:false);
          cell "e1"
            (r.Reference.e1.(k).(n) *. quantum)
            (Dp.expected_work_q dp ~n ~k ~delta:true);
          let icell what want got =
            if want <> got then
              Alcotest.failf "%s: %s(%d, %d) = %d, reference %d" label what k n
                got want
          in
          icell "ib0"
            r.Reference.ib0.(k).(n)
            (Dp.first_checkpoint_q dp ~n ~k ~delta:false);
          icell "ib1"
            r.Reference.ib1.(k).(n)
            (Dp.first_checkpoint_q dp ~n ~k ~delta:true);
          icell "argm1" r.Reference.argm1.(k).(n) (Dp.arg_best_m dp ~n ~k)
        done
      done;
      for n = 0 to r.Reference.tstar do
        Alcotest.(check int)
          (Printf.sprintf "%s bestk0(%d)" label n)
          r.Reference.bestk0.(n)
          (Dp.best_k dp ~n ~delta:false)
      done)
    [
      (0.002, 10.0, 5.0, 1.0, 300.0, None);
      (0.01, 5.0, 2.0, 1.0, 150.0, None);
      (0.001, 20.0, 0.0, 2.0, 500.0, None);
      (0.005, 8.0, 3.0, 0.5, 120.0, None);
      (0.002, 10.0, 0.0, 1.0, 400.0, Some 7);
    ]

let test_suggested_kmax_zero_c () =
  (* C = 0 used to divide by zero in the exact bound T/C (and the
     Young/Daly stride, since W_YD vanishes with C). *)
  let params = P.make ~lambda:0.001 ~c:0.0 ~r:0.0 ~d:0.0 in
  let k = Dp.suggested_kmax ~params ~horizon:100.0 in
  Alcotest.(check bool) "finite and positive" true (k >= 1);
  Alcotest.(check int) "one checkpoint per time unit" 100 k;
  Alcotest.(check int) "tiny horizon still positive" 1
    (Dp.suggested_kmax ~params ~horizon:0.5)

let test_suggested_kmax_bounds () =
  let k = Dp.suggested_kmax ~params ~horizon:2000.0 in
  Alcotest.(check bool) "at least 1" true (k >= 1);
  Alcotest.(check bool) "no more than exact bound" true
    (k <= int_of_float (2000.0 /. params.P.c))

let test_build_validation () =
  (match build ~quantum:0.0 ~horizon:10.0 () with
  | _ -> Alcotest.fail "quantum 0 accepted"
  | exception Invalid_argument _ -> ());
  (match build ~horizon:0.5 () with
  | _ -> Alcotest.fail "sub-quantum horizon accepted"
  | exception Invalid_argument _ -> ());
  (match build ~kmax:0 ~horizon:100.0 () with
  | _ -> Alcotest.fail "kmax 0 accepted"
  | exception Invalid_argument _ -> ());
  (* NaN slips past a sign test, and an infinite or overflowing quanta
     count truncates to an empty T* = 0 table: all are refused. *)
  List.iter
    (fun (quantum, horizon) ->
      match build ~quantum ~horizon () with
      | _ -> Alcotest.failf "quantum %g, horizon %g accepted" quantum horizon
      | exception Invalid_argument _ -> ())
    [
      (Float.nan, 100.0);
      (Float.infinity, 100.0);
      (1e-300, 100.0);
      (1.0, Float.nan);
      (1.0, Float.infinity);
    ]

let qcheck_dominance =
  (* Random platforms: the DP optimum must dominate the heuristics on
     the quantised model at its own horizon. *)
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"DP dominates heuristics on random platforms"
       ~count:15
       (QCheck.make
          QCheck.Gen.(
            (* costs and horizon on the quantum grid, as in the paper:
               otherwise the DP solves a rounded (harsher) instance and
               cannot be compared with the continuous heuristics *)
            let* lambda = float_range 5e-4 0.03 in
            let* c = int_range 3 25 in
            let* d = int_range 0 6 in
            let* horizon = int_range 60 220 in
            return
              ( P.paper ~lambda ~c:(float_of_int c) ~d:(float_of_int d),
                float_of_int horizon ))
          ~print:(fun (p, h) -> Printf.sprintf "%s T=%g" (P.to_string p) h))
       (fun (params, horizon) ->
         let dp = Dp.build ~params ~quantum:1.0 ~horizon () in
         let v_dp = Dp.expected_work dp ~tleft:horizon in
         let check policy =
           Core.Expected.policy_value ~params ~quantum:1.0 ~horizon ~policy
           <= v_dp +. 1e-6
         in
         check (Core.Policies.young_daly ~params)
         && check (Core.Policies.numerical_optimum ~params ~horizon)
         && check (Sim.Policy.single_final ~params)))

let () =
  Alcotest.run "dp"
    [
      ( "table structure",
        [
          Alcotest.test_case "zero when nothing fits" `Quick
            test_zero_when_nothing_fits;
          Alcotest.test_case "upper bound" `Quick test_upper_bound;
          Alcotest.test_case "monotone in n" `Quick test_monotone_in_n;
          Alcotest.test_case "recovery start is never better" `Quick
            test_delta_costs_recovery;
          Alcotest.test_case "suggested kmax" `Quick test_suggested_kmax_bounds;
          Alcotest.test_case "suggested kmax with C = 0" `Quick
            test_suggested_kmax_zero_c;
          Alcotest.test_case "build validation" `Quick test_build_validation;
          Alcotest.test_case "flat tables match boxed reference" `Slow
            test_flat_tables_match_reference;
        ] );
      ( "optimality",
        [
          Alcotest.test_case "value = policy evaluator" `Quick
            test_matches_policy_evaluator;
          Alcotest.test_case "dominates all baselines" `Quick
            test_dominates_other_policies;
          Alcotest.test_case "k=1 exhaustive cross-check" `Quick
            test_k1_matches_exhaustive_search;
          Alcotest.test_case "kmax cap invariance" `Quick test_kmax_cap_invariant;
          Alcotest.test_case "quantum refinement" `Slow test_quantum_refinement;
        ] );
      ( "policy execution",
        [
          Alcotest.test_case "plans are valid" `Quick test_plans_are_valid;
          Alcotest.test_case "plan unroll" `Quick test_plan_unroll_consistent_with_tables;
          Alcotest.test_case "stateful re-planning" `Quick
            test_policy_statefulness_after_failure;
          Alcotest.test_case "reusable across traces" `Quick
            test_policy_reusable_across_traces;
          Alcotest.test_case "Monte-Carlo agreement" `Slow test_monte_carlo_agreement;
          Alcotest.test_case "early final checkpoint" `Quick
            test_last_checkpoint_can_end_early;
        ] );
      ( "properties",
        [ qcheck_dominance ] );
    ]
