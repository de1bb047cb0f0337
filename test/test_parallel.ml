(* Tests for Parallel.Pool. *)

module Pool = Parallel.Pool

let test_map_matches_sequential () =
  Pool.with_pool (fun pool ->
      let xs = Array.init 1000 (fun i -> i) in
      let f x = (x * x) + 1 in
      Alcotest.(check (array int))
        "parallel = sequential" (Array.map f xs)
        (Pool.map pool ~f xs))

let test_map_preserves_order_under_skew () =
  (* Uneven task durations must not reorder results. *)
  Pool.with_pool (fun pool ->
      let xs = Array.init 64 (fun i -> i) in
      let f x =
        if x mod 7 = 0 then begin
          (* burn some time *)
          let acc = ref 0.0 in
          for i = 1 to 200_000 do
            acc := !acc +. sqrt (float_of_int i)
          done;
          ignore !acc
        end;
        x * 2
      in
      Alcotest.(check (array int))
        "ordered" (Array.map f xs) (Pool.map pool ~f xs))

let test_mapi () =
  Pool.with_pool (fun pool ->
      let xs = [| "a"; "b"; "c" |] in
      Alcotest.(check (array string))
        "mapi indexes" [| "0a"; "1b"; "2c" |]
        (Pool.mapi pool ~f:(fun i s -> string_of_int i ^ s) xs))

let test_empty_map () =
  Pool.with_pool (fun pool ->
      Alcotest.(check (array int)) "empty" [||] (Pool.map pool ~f:(fun x -> x) [||]))

let test_single_domain_pool () =
  let pool = Pool.create ~domains:1 () in
  let xs = Array.init 100 (fun i -> i) in
  Alcotest.(check (array int))
    "sequential degradation" (Array.map succ xs)
    (Pool.map pool ~f:succ xs);
  Pool.shutdown pool

let exception_payload = Failure "task 13 exploded"

let test_exception_propagates () =
  Pool.with_pool (fun pool ->
      match
        Pool.map pool
          ~f:(fun x -> if x = 13 then raise exception_payload else x)
          (Array.init 64 (fun i -> i))
      with
      | _ -> Alcotest.fail "exception swallowed"
      | exception Failure msg ->
          Alcotest.(check string) "original exception" "task 13 exploded" msg)

let test_pool_usable_after_exception () =
  Pool.with_pool (fun pool ->
      (try
         ignore
           (Pool.map pool ~f:(fun _ -> failwith "boom") (Array.init 8 (fun i -> i)))
       with Failure _ -> ());
      Alcotest.(check (array int)) "works again" [| 2; 4 |]
        (Pool.map pool ~f:(fun x -> x * 2) [| 1; 2 |]))

let test_shutdown_blocks_use () =
  let pool = Pool.create () in
  Pool.shutdown pool;
  (match Pool.map pool ~f:succ [| 1 |] with
  | _ -> Alcotest.fail "used after shutdown"
  | exception Invalid_argument _ -> ());
  (* idempotent shutdown *)
  Pool.shutdown pool

let test_create_validation () =
  (match Pool.create ~domains:0 () with
  | _ -> Alcotest.fail "domains 0 accepted"
  | exception Invalid_argument _ -> ())

let test_try_mapi_isolates_failures () =
  Pool.with_pool (fun pool ->
      let xs = Array.init 64 (fun i -> i) in
      let outcomes =
        Pool.try_mapi pool
          ~f:(fun i x ->
            if i = 13 then raise exception_payload else x * 2)
          xs
      in
      Alcotest.(check int) "one outcome per task" 64 (Array.length outcomes);
      Array.iteri
        (fun i outcome ->
          match (i, outcome) with
          | 13, Error (Failure msg) ->
              Alcotest.(check string) "original exception" "task 13 exploded" msg
          | 13, _ -> Alcotest.fail "poisoned task did not report its failure"
          | i, Ok v -> Alcotest.(check int) (Printf.sprintf "task %d" i) (i * 2) v
          | i, Error _ -> Alcotest.failf "healthy task %d failed" i)
        outcomes)

let test_try_mapi_all_tasks_run_despite_failures () =
  (* Unlike [map], a failure must not stop the remaining tasks from being
     scheduled: every index gets executed exactly once. *)
  Pool.with_pool (fun pool ->
      let ran = Array.init 256 (fun _ -> Atomic.make 0) in
      let outcomes =
        Pool.try_mapi pool
          ~f:(fun i _ ->
            Atomic.incr ran.(i);
            if i mod 3 = 0 then failwith "injected" else i)
          (Array.init 256 (fun i -> i))
      in
      Array.iteri
        (fun i counter ->
          Alcotest.(check int) (Printf.sprintf "task %d ran once" i) 1
            (Atomic.get counter))
        ran;
      let failed =
        Array.fold_left
          (fun acc -> function Error _ -> acc + 1 | Ok _ -> acc)
          0 outcomes
      in
      Alcotest.(check int) "every third task failed" 86 failed)

let test_try_mapi_retry_absorbs_flaky_tasks () =
  (* The composition the campaign runner uses: transient failures inside
     the task are retried, so the result array is all Ok. *)
  Pool.with_pool (fun pool ->
      let retry = Robust.Retry.make ~attempts:3 ~base_delay:0.0 () in
      let attempts_seen = Array.init 32 (fun _ -> Atomic.make 0) in
      let outcomes =
        Pool.try_mapi pool
          ~f:(fun i x ->
            let computed =
              Robust.Retry.run retry ~key:i (fun ~attempt ->
                  Atomic.incr attempts_seen.(i);
                  (* Every task fails its first attempt, succeeds after. *)
                  if attempt = 0 then failwith "flaky";
                  x * 10)
            in
            match computed with Ok v -> v | Error e -> raise e)
          (Array.init 32 (fun i -> i))
      in
      Array.iteri
        (fun i outcome ->
          match outcome with
          | Ok v -> Alcotest.(check int) (Printf.sprintf "task %d" i) (i * 10) v
          | Error _ -> Alcotest.failf "retry did not absorb flaky task %d" i)
        outcomes;
      Array.iteri
        (fun i counter ->
          Alcotest.(check int)
            (Printf.sprintf "task %d took two attempts" i)
            2 (Atomic.get counter))
        attempts_seen)

let test_chaos_retry_composition_bit_identical () =
  (* Full resilience stack on the domain pool: deterministic chaos
     injecting both delays and failures, absorbed by retries inside
     try_mapi — the result array must equal the fault-free run bit for
     bit, delays and scheduling shifts notwithstanding. *)
  Pool.with_pool (fun pool ->
      let xs = Array.init 48 (fun i -> float_of_int i) in
      let eval x = sqrt ((x +. 1.0) /. 3.0) in
      let fault_free = Pool.try_mapi pool ~f:(fun _ x -> eval x) xs in
      let chaos =
        Robust.Chaos.create ~failure_rate:0.4 ~delay_rate:0.3 ~delay:0.001
          ~seed:21L ()
      in
      let retry = Robust.Retry.make ~attempts:8 ~base_delay:0.0 () in
      let chaotic =
        Pool.try_mapi pool
          ~f:(fun i x ->
            match
              Robust.Retry.run retry ~key:i (fun ~attempt ->
                  Robust.Chaos.inject chaos ~key:i ~attempt;
                  eval x)
            with
            | Ok v -> v
            | Error e -> raise e)
          xs
      in
      Alcotest.(check bool) "chaos actually struck" true
        (Robust.Chaos.injected_failures chaos > 0);
      Array.iteri
        (fun i outcome ->
          match (fault_free.(i), outcome) with
          | Ok a, Ok b ->
              Alcotest.(check bool)
                (Printf.sprintf "task %d bit-identical" i)
                true
                (Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
          | _ -> Alcotest.failf "task %d did not survive chaos" i)
        chaotic)

let test_try_map_empty_and_clean () =
  Pool.with_pool (fun pool ->
      Alcotest.(check int) "empty" 0
        (Array.length (Pool.try_map pool ~f:(fun x -> x) [||]));
      let outcomes = Pool.try_map pool ~f:succ [| 1; 2; 3 |] in
      Array.iteri
        (fun i outcome ->
          match outcome with
          | Ok v -> Alcotest.(check int) "value" (i + 2) v
          | Error _ -> Alcotest.fail "clean task failed")
        outcomes)

let test_heavy_numeric_speed_consistency () =
  (* Not a benchmark: only checks that a realistic workload (many DP
     mini-builds) computes identical results through the pool. *)
  let params = Fault.Params.paper ~lambda:0.01 ~c:5.0 ~d:0.0 in
  let horizons = Array.init 12 (fun i -> 40.0 +. (10.0 *. float_of_int i)) in
  let compute h =
    let dp = Core.Dp.build ~params ~quantum:1.0 ~horizon:h () in
    Core.Dp.expected_work dp ~tleft:h
  in
  let sequential = Array.map compute horizons in
  Pool.with_pool (fun pool ->
      let parallel = Pool.map pool ~f:compute horizons in
      Array.iteri
        (fun i v ->
          Alcotest.(check (float 1e-12))
            (Printf.sprintf "horizon %g" horizons.(i))
            sequential.(i) v)
        parallel)

let qcheck_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"map = Array.map for random arrays" ~count:50
         QCheck.(array_of_size (QCheck.Gen.int_range 0 500) small_int)
         (fun xs ->
           Pool.with_pool (fun pool ->
               Pool.map pool ~f:(fun x -> (3 * x) - 7) xs
               = Array.map (fun x -> (3 * x) - 7) xs)));
  ]

let () =
  Alcotest.run "parallel"
    [
      ( "map",
        [
          Alcotest.test_case "matches sequential" `Quick test_map_matches_sequential;
          Alcotest.test_case "order under skew" `Quick
            test_map_preserves_order_under_skew;
          Alcotest.test_case "mapi" `Quick test_mapi;
          Alcotest.test_case "empty input" `Quick test_empty_map;
          Alcotest.test_case "single domain" `Quick test_single_domain_pool;
        ] );
      ( "failure handling",
        [
          Alcotest.test_case "exception propagates" `Quick test_exception_propagates;
          Alcotest.test_case "usable after exception" `Quick
            test_pool_usable_after_exception;
          Alcotest.test_case "shutdown semantics" `Quick test_shutdown_blocks_use;
          Alcotest.test_case "create validation" `Quick test_create_validation;
        ] );
      ( "fault isolation",
        [
          Alcotest.test_case "try_mapi isolates failures" `Quick
            test_try_mapi_isolates_failures;
          Alcotest.test_case "all tasks run despite failures" `Quick
            test_try_mapi_all_tasks_run_despite_failures;
          Alcotest.test_case "retry absorbs flaky tasks" `Quick
            test_try_mapi_retry_absorbs_flaky_tasks;
          Alcotest.test_case "chaos + retry composition bit-identical" `Quick
            test_chaos_retry_composition_bit_identical;
          Alcotest.test_case "try_map empty and clean" `Quick
            test_try_map_empty_and_clean;
        ] );
      ( "workloads",
        [
          Alcotest.test_case "DP builds in parallel" `Quick
            test_heavy_numeric_speed_consistency;
        ] );
      ("properties", qcheck_tests);
    ]
