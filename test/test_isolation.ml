(* The process backend of Experiments.Runner (forked, supervised
   workers), in an executable of its own: the OCaml 5 runtime refuses
   [fork] for the rest of a process's life once it has spawned a domain,
   even a joined one. So both process-backend sweeps run first, while
   this module initialises and before any domain exists; the cases then
   compute their domain-pool references and compare. Each sweep is
   handed a multi-domain pool, as the CLI does: the runner must keep its
   parent-side work (trace prefetch, table warm-up) off that pool, or
   the forks are refused. *)

open Runner_fixtures
module Journal = Robust.Journal
module Retry = Robust.Retry
module Chaos = Robust.Chaos

(* A sweep that raises fails its case, not the executable. *)
let attempt f = match f () with v -> Ok v | exception e -> Error e
let get = function Ok v -> v | Error e -> raise e

(* The fork-based backend must be a drop-in: same curves, bit for bit
   (Marshal round-trips float bits), with journaling done by the
   supervising parent instead of the worker. *)
let isolated =
  attempt (fun () ->
      Parallel.Pool.with_pool (fun pool ->
          with_temp (fun path ->
              let key = Experiments.Spec.fingerprint tiny_spec in
              let j = Journal.open_ ~path ~key () in
              let result =
                Fun.protect
                  ~finally:(fun () -> Journal.close j)
                  (fun () ->
                    Parallel.Proc_pool.with_pool ~workers:2 (fun pp ->
                        Experiments.Runner.run ~pool
                          ~backend:(Experiments.Runner.Processes pp)
                          ~journal:j tiny_spec))
              in
              let j = Journal.open_ ~strict:true ~path ~key () in
              let journaled = Journal.length j in
              Journal.close j;
              (result, journaled))))

(* A deterministically hung grid point is SIGKILLed by the watchdog and
   re-dispatched; the re-dispatch draws fresh chaos decisions (the
   attempt number folds in the dispatch attempt), so the sweep finishes
   and matches the fault-free curves exactly. *)
let isolated_hang =
  attempt (fun () ->
      let chaos = Chaos.create ~hang_rate:0.4 ~seed:5L () in
      let retry = Retry.make ~attempts:4 ~base_delay:0.0 () in
      let chaotic =
        Parallel.Pool.with_pool (fun pool ->
            Parallel.Proc_pool.with_pool ~workers:2 ~task_timeout:0.5
              ~attempts:4 (fun pp ->
                Experiments.Runner.run ~pool
                  ~backend:(Experiments.Runner.Processes pp) ~retry ~chaos
                  tiny_spec))
      in
      (chaotic, chaos))

let test_process_backend_matches_domains () =
  let isolated, journaled = get isolated in
  let in_process =
    Parallel.Pool.with_pool (fun pool ->
        Experiments.Runner.run ~pool tiny_spec)
  in
  check_same_result in_process isolated;
  Alcotest.(check bool) "no deadline, no partial" false
    isolated.Experiments.Runner.partial;
  (* Parent-side journaling committed every point. *)
  Alcotest.(check int) "journaled from the parent" 4 journaled

let test_process_backend_recovers_chaos_hang () =
  let chaotic, chaos = get isolated_hang in
  let clean =
    Parallel.Pool.with_pool (fun pool ->
        Experiments.Runner.run ~pool tiny_spec)
  in
  (* The real hangs happen in forked children, invisible to this
     process's counters — assert on the pure decision function
     instead: some (key, attempt=0) must hang at rate 0.4. *)
  let struck =
    List.exists
      (fun key -> Chaos.should_hang chaos ~key ~attempt:0)
      (List.init 4 Fun.id)
  in
  Alcotest.(check bool) "chaos would hang an attempt" true struck;
  check_same_result clean chaotic

let test_fork_after_domain_refused () =
  (* Joined or not, one spawned domain is enough for the runtime. *)
  Domain.join (Domain.spawn ignore);
  match
    Parallel.Proc_pool.with_pool ~workers:1 (fun pp ->
        Parallel.Proc_pool.try_mapi pp
          ~f:(fun ~attempt:_ _ x -> x)
          [| 1 |])
  with
  | _ -> Alcotest.fail "forked after a domain was spawned"
  | exception (Parallel.Proc_pool.Fork_refused as e) ->
      let msg = Printexc.to_string e in
      Alcotest.(check bool) ("message names the cause: " ^ msg) true
        (contains msg "spawned an OCaml domain")

let () =
  Alcotest.run "isolation"
    [
      ( "process backend",
        [
          Alcotest.test_case "matches domains" `Slow
            test_process_backend_matches_domains;
          Alcotest.test_case "recovers chaos hang" `Slow
            test_process_backend_recovers_chaos_hang;
          Alcotest.test_case "fork after a domain is refused" `Quick
            test_fork_after_domain_refused;
        ] );
    ]
