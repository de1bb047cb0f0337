(* Tests for Robust.{Retry, Chaos, Guard, Journal} and the resilience
   behaviour of Experiments.Runner (journal resume, chaos + retry). *)

module Retry = Robust.Retry
module Chaos = Robust.Chaos
module Guard = Robust.Guard
module Journal = Robust.Journal
open Runner_fixtures

(* Retry *)

let fast = Retry.make ~attempts:3 ~base_delay:0.0 ()

let test_retry_transient_recovers () =
  let calls = ref 0 in
  let result =
    Retry.run fast ~key:7 (fun ~attempt ->
        incr calls;
        if attempt < 2 then failwith "transient";
        42)
  in
  Alcotest.(check int) "three calls" 3 !calls;
  (match result with
  | Ok v -> Alcotest.(check int) "recovered value" 42 v
  | Error _ -> Alcotest.fail "transient failure not absorbed")

let test_retry_exhaustion () =
  let calls = ref 0 in
  (match
     Retry.run fast ~key:7 (fun ~attempt:_ ->
         incr calls;
         failwith "permanent")
   with
  | Ok _ -> Alcotest.fail "permanent failure succeeded"
  | Error (Failure msg) -> Alcotest.(check string) "last exception" "permanent" msg
  | Error _ -> Alcotest.fail "wrong exception");
  Alcotest.(check int) "budget respected" 3 !calls

let test_retry_no_retry_single_attempt () =
  let calls = ref 0 in
  (match
     Retry.run Retry.no_retry ~key:0 (fun ~attempt:_ ->
         incr calls;
         failwith "boom")
   with
  | Ok _ -> Alcotest.fail "failure succeeded"
  | Error _ -> ());
  Alcotest.(check int) "exactly one attempt" 1 !calls

let test_retry_deterministic_jittered_backoff () =
  let policy =
    Retry.make ~attempts:5 ~base_delay:0.1 ~multiplier:2.0 ~jitter:0.5
      ~seed:42L ()
  in
  for attempt = 1 to 4 do
    let d = Retry.delay_before policy ~key:3 ~attempt in
    Alcotest.(check (float 0.0))
      (Printf.sprintf "attempt %d replayable" attempt)
      d
      (Retry.delay_before policy ~key:3 ~attempt);
    let nominal = 0.1 *. (2.0 ** float_of_int (attempt - 1)) in
    if d < nominal *. 0.5 -. 1e-12 || d > nominal +. 1e-12 then
      Alcotest.failf "attempt %d delay %g outside [%g, %g]" attempt d
        (nominal *. 0.5) nominal
  done;
  (* Different keys draw different jitter (with overwhelming odds). *)
  let distinct =
    List.exists
      (fun key ->
        Retry.delay_before policy ~key ~attempt:1
        <> Retry.delay_before policy ~key:3 ~attempt:1)
      [ 4; 5; 6; 7 ]
  in
  Alcotest.(check bool) "jitter varies with key" true distinct

let test_retry_sleeps_recorded_delays () =
  let policy =
    Retry.make ~attempts:3 ~base_delay:0.25 ~multiplier:2.0 ~jitter:0.5
      ~seed:9L ()
  in
  let slept = ref [] in
  (match
     Retry.run ~sleep:(fun d -> slept := d :: !slept) policy ~key:11
       (fun ~attempt:_ -> failwith "always")
   with
  | Ok _ -> Alcotest.fail "unexpected success"
  | Error _ -> ());
  let expected =
    [
      Retry.delay_before policy ~key:11 ~attempt:1;
      Retry.delay_before policy ~key:11 ~attempt:2;
    ]
  in
  Alcotest.(check (list (float 0.0))) "backoff schedule" expected
    (List.rev !slept)

let test_retry_validation () =
  List.iter
    (fun thunk ->
      match thunk () with
      | (_ : Retry.t) -> Alcotest.fail "invalid policy accepted"
      | exception Invalid_argument _ -> ())
    [
      (fun () -> Retry.make ~attempts:0 ());
      (fun () -> Retry.make ~base_delay:(-1.0) ());
      (fun () -> Retry.make ~jitter:1.5 ());
    ]

let test_retry_attempt_numbering () =
  (* The documented convention: [run] numbers attempts from 0, a delay
     exists only {e before} attempt k >= 1, so [delay_before ~attempt:0]
     is a programming error, and the slept schedule of a failing run is
     exactly [delay_before ~attempt:1 .. attempts-1]. *)
  let policy =
    Retry.make ~attempts:4 ~base_delay:0.125 ~multiplier:2.0 ~jitter:0.5
      ~seed:77L ()
  in
  (match Retry.delay_before policy ~key:0 ~attempt:0 with
  | (_ : float) -> Alcotest.fail "delay before the first attempt accepted"
  | exception Invalid_argument _ -> ());
  let observed = ref [] and slept = ref [] in
  (match
     Retry.run
       ~sleep:(fun d -> slept := d :: !slept)
       policy ~key:13
       (fun ~attempt ->
         observed := attempt :: !observed;
         failwith "always")
   with
  | Ok _ -> Alcotest.fail "unexpected success"
  | Error _ -> ());
  Alcotest.(check (list int)) "attempts numbered from 0" [ 0; 1; 2; 3 ]
    (List.rev !observed);
  Alcotest.(check (list (float 0.0)))
    "exactly one deterministic delay before each attempt k >= 1"
    [
      Retry.delay_before policy ~key:13 ~attempt:1;
      Retry.delay_before policy ~key:13 ~attempt:2;
      Retry.delay_before policy ~key:13 ~attempt:3;
    ]
    (List.rev !slept)

let test_retry_decorrelated_jitter () =
  (* d_k = min (cap, base + u_k * (3 d_(k-1) - base)), d_0 = base: every
     delay is in [base, min (cap, 3 d_(k-1))], deterministic per
     (seed, key, attempt), and key-dependent. *)
  let base = 0.05 and cap = 1.0 in
  let policy =
    Retry.make ~attempts:8 ~base_delay:base ~decorrelated:true ~max_delay:cap
      ~seed:42L ()
  in
  let prev = ref base in
  for attempt = 1 to 7 do
    let d = Retry.delay_before policy ~key:3 ~attempt in
    Alcotest.(check (float 0.0))
      (Printf.sprintf "attempt %d replayable" attempt)
      d
      (Retry.delay_before policy ~key:3 ~attempt);
    let hi = Float.min cap (3.0 *. !prev) in
    if d < base -. 1e-12 || d > hi +. 1e-12 then
      Alcotest.failf "attempt %d delay %g outside [%g, %g]" attempt d base hi;
    prev := d
  done;
  let distinct =
    List.exists
      (fun key ->
        Retry.delay_before policy ~key ~attempt:2
        <> Retry.delay_before policy ~key:3 ~attempt:2)
      [ 4; 5; 6; 7 ]
  in
  Alcotest.(check bool) "jitter varies with key" true distinct

let test_retry_max_delay_clamps_both_modes () =
  (* Exponential growth hits the cap quickly at multiplier 2... *)
  let exp_policy =
    Retry.make ~attempts:12 ~base_delay:0.1 ~multiplier:2.0 ~jitter:0.0
      ~max_delay:0.5 ~seed:1L ()
  in
  for attempt = 1 to 11 do
    let d = Retry.delay_before exp_policy ~key:0 ~attempt in
    if d > 0.5 +. 1e-12 then
      Alcotest.failf "exponential attempt %d delay %g exceeds cap" attempt d
  done;
  Alcotest.(check (float 1e-12))
    "deep exponential attempt sits at the cap" 0.5
    (Retry.delay_before exp_policy ~key:0 ~attempt:11);
  (* ... and decorrelated delays never pierce it either. *)
  let dec_policy =
    Retry.make ~attempts:32 ~base_delay:0.1 ~decorrelated:true ~max_delay:0.3
      ~seed:2L ()
  in
  for attempt = 1 to 31 do
    let d = Retry.delay_before dec_policy ~key:5 ~attempt in
    if d > 0.3 +. 1e-12 then
      Alcotest.failf "decorrelated attempt %d delay %g exceeds cap" attempt d
  done

let test_retry_decorrelated_run_schedule () =
  (* Attempt numbering is mode-independent: a failing run sleeps exactly
     delay_before ~attempt:1 .. attempts-1, same as exponential mode. *)
  let policy =
    Retry.make ~attempts:4 ~base_delay:0.02 ~decorrelated:true ~seed:11L ()
  in
  (match Retry.delay_before policy ~key:0 ~attempt:0 with
  | (_ : float) -> Alcotest.fail "delay before the first attempt accepted"
  | exception Invalid_argument _ -> ());
  let slept = ref [] in
  (match
     Retry.run
       ~sleep:(fun d -> slept := d :: !slept)
       policy ~key:21
       (fun ~attempt:_ -> failwith "always")
   with
  | Ok _ -> Alcotest.fail "unexpected success"
  | Error _ -> ());
  Alcotest.(check (list (float 0.0)))
    "decorrelated backoff schedule"
    [
      Retry.delay_before policy ~key:21 ~attempt:1;
      Retry.delay_before policy ~key:21 ~attempt:2;
      Retry.delay_before policy ~key:21 ~attempt:3;
    ]
    (List.rev !slept)

let test_retry_decorrelated_validation () =
  match Retry.make ~max_delay:(-0.5) () with
  | (_ : Retry.t) -> Alcotest.fail "negative max_delay accepted"
  | exception Invalid_argument _ -> ()

(* Chaos *)

let test_chaos_rate_extremes () =
  let never = Chaos.create ~failure_rate:0.0 ~seed:1L () in
  let always = Chaos.create ~failure_rate:1.0 ~seed:1L () in
  for key = 0 to 99 do
    if Chaos.should_fail never ~key ~attempt:0 then
      Alcotest.failf "rate 0 failed key %d" key;
    if not (Chaos.should_fail always ~key ~attempt:0) then
      Alcotest.failf "rate 1 spared key %d" key
  done

let test_chaos_deterministic_and_counted () =
  let ch = Chaos.create ~failure_rate:0.4 ~seed:5L () in
  let decisions key attempt = Chaos.should_fail ch ~key ~attempt in
  (* Same (key, attempt) always decides the same way; a fresh instance
     with the same seed replays the run. *)
  let ch' = Chaos.create ~failure_rate:0.4 ~seed:5L () in
  for key = 0 to 49 do
    for attempt = 0 to 2 do
      Alcotest.(check bool)
        (Printf.sprintf "replayable (%d, %d)" key attempt)
        (decisions key attempt)
        (Chaos.should_fail ch' ~key ~attempt)
    done
  done;
  let struck = ref 0 in
  for key = 0 to 49 do
    match Chaos.inject ch ~key ~attempt:0 with
    | () -> ()
    | exception Chaos.Injected _ -> incr struck
  done;
  Alcotest.(check int) "counter matches raises" !struck
    (Chaos.injected_failures ch);
  Alcotest.(check bool) "rate 0.4 struck at least once" true (!struck > 0)

let test_chaos_rate_validation () =
  (match Chaos.create ~failure_rate:1.5 ~seed:0L () with
  | (_ : Chaos.t) -> Alcotest.fail "rate > 1 accepted"
  | exception Invalid_argument _ -> ());
  (match Chaos.create ~hang_rate:(-0.1) ~seed:0L () with
  | (_ : Chaos.t) -> Alcotest.fail "negative hang rate accepted"
  | exception Invalid_argument _ -> ())

let test_chaos_delay_deterministic () =
  (* Delay decisions, like failures, are a pure function of
     (seed, key, attempt): a replayed run sleeps at exactly the same
     points, which is what makes delay-chaos drills reproducible. *)
  let make () = Chaos.create ~delay_rate:0.3 ~delay:0.5 ~seed:11L () in
  let a = make () and b = make () in
  let hits = ref 0 in
  for key = 0 to 49 do
    for attempt = 0 to 2 do
      let da = Chaos.should_delay a ~key ~attempt in
      Alcotest.(check bool)
        (Printf.sprintf "replayable (%d, %d)" key attempt)
        da
        (Chaos.should_delay b ~key ~attempt);
      if da then incr hits
    done
  done;
  Alcotest.(check bool) "rate 0.3 delayed some attempt" true (!hits > 0);
  Alcotest.(check bool) "rate 0.3 spared some attempt" true (!hits < 150);
  (* [inject] acts on exactly the decisions [should_delay] reports, with
     the configured duration, through the injected sleep. *)
  let slept = ref [] in
  let ch =
    Chaos.create ~delay_rate:0.3 ~delay:0.5
      ~sleep:(fun d -> slept := d :: !slept)
      ~seed:11L ()
  in
  for key = 0 to 49 do
    Chaos.inject ch ~key ~attempt:0
  done;
  let expected =
    List.filter (fun key -> Chaos.should_delay a ~key ~attempt:0)
      (List.init 50 Fun.id)
  in
  Alcotest.(check int) "inject slept per decision" (List.length expected)
    (List.length !slept);
  List.iter
    (fun d -> Alcotest.(check (float 0.0)) "configured duration" 0.5 d)
    !slept

let test_chaos_hang_deterministic () =
  let hang_hit = ref 0 in
  let ch =
    Chaos.create ~hang_rate:0.25 ~hang:(fun () -> incr hang_hit) ~seed:3L ()
  in
  let ch' = Chaos.create ~hang_rate:0.25 ~seed:3L () in
  let decided = ref 0 in
  for key = 0 to 79 do
    let h = Chaos.should_hang ch ~key ~attempt:0 in
    Alcotest.(check bool)
      (Printf.sprintf "replayable key %d" key)
      h
      (Chaos.should_hang ch' ~key ~attempt:0);
    if h then incr decided;
    Chaos.inject ch ~key ~attempt:0
  done;
  Alcotest.(check bool) "rate 0.25 hung something" true (!decided > 0);
  Alcotest.(check int) "inject hung per decision" !decided !hang_hit;
  (* A later attempt of the same key draws fresh: at rate 0.25 at least
     one of the 80 keys must decide differently on attempt 1. *)
  let differs =
    List.exists
      (fun key ->
        Chaos.should_hang ch ~key ~attempt:0
        <> Chaos.should_hang ch ~key ~attempt:1)
      (List.init 80 Fun.id)
  in
  Alcotest.(check bool) "attempts draw independently" true differs

(* Deadline *)

let fake_clock times =
  let remaining = ref times in
  fun () ->
    match !remaining with
    | [] -> Alcotest.fail "fake clock exhausted"
    | t :: rest ->
        remaining := rest;
        t

let test_deadline_unlimited () =
  let d = Robust.Deadline.unlimited in
  Alcotest.(check bool) "unlimited" true (Robust.Deadline.is_unlimited d);
  Alcotest.(check bool) "never expires" false (Robust.Deadline.expired d);
  Alcotest.(check bool) "infinite remaining" true
    (Robust.Deadline.remaining d = infinity);
  Robust.Deadline.check d

let test_deadline_expiry () =
  (* start reads the clock once (10); then elapsed = now - 10. *)
  let now = fake_clock [ 10.0; 11.0; 14.0; 14.9; 14.95; 15.0 ] in
  let d = Robust.Deadline.start ~now ~budget:5.0 () in
  Alcotest.(check (float 0.0)) "budget" 5.0 (Robust.Deadline.budget d);
  Alcotest.(check (float 1e-12)) "elapsed at 11" 1.0
    (Robust.Deadline.elapsed d);
  Alcotest.(check (float 1e-12)) "remaining at 14" 1.0
    (Robust.Deadline.remaining d);
  Alcotest.(check bool) "not expired at 14.9" false (Robust.Deadline.expired d);
  Robust.Deadline.check d;
  (* at 15.0 the budget is exactly consumed: <= means expired *)
  match Robust.Deadline.check d with
  | () -> Alcotest.fail "expiry not detected"
  | exception Robust.Deadline.Deadline_exceeded -> ()

let test_deadline_zero_budget () =
  let d = Robust.Deadline.start ~budget:0.0 () in
  Alcotest.(check bool) "zero budget starts expired" true
    (Robust.Deadline.expired d)

let test_deadline_validation () =
  List.iter
    (fun budget ->
      match Robust.Deadline.start ~budget () with
      | (_ : Robust.Deadline.t) -> Alcotest.fail "invalid budget accepted"
      | exception Invalid_argument _ -> ())
    [ -1.0; infinity; Float.nan ]

(* Guard *)

let test_guard_passthrough () =
  ignore (Guard.drain ());
  let v =
    Guard.protect ~context:"test" ~recover:(fun _ -> Some ("fallback", 0))
      (fun () -> 17)
  in
  Alcotest.(check int) "primary value" 17 v;
  Alcotest.(check int) "no warning" 0 (List.length (Guard.drain ()))

let test_guard_fallback_records_warning () =
  ignore (Guard.drain ());
  let v =
    Guard.protect ~context:"test ctx"
      ~recover:(function Failure _ -> Some ("closed form", 99) | _ -> None)
      (fun () -> failwith "diverged")
  in
  Alcotest.(check int) "fallback value" 99 v;
  match Guard.drain () with
  | [ w ] ->
      Alcotest.(check string) "context" "test ctx" w.Guard.context;
      Alcotest.(check bool) "detail names exception" true
        (contains w.Guard.detail "diverged");
      Alcotest.(check string) "fallback" "closed form" w.Guard.fallback
  | ws -> Alcotest.failf "expected one warning, got %d" (List.length ws)

let test_guard_unrecoverable_reraises () =
  ignore (Guard.drain ());
  (match
     Guard.protect ~context:"test"
       ~recover:(function Failure _ -> Some ("x", 0) | _ -> None)
       (fun () -> raise Exit)
   with
  | _ -> Alcotest.fail "foreign exception swallowed"
  | exception Exit -> ());
  Alcotest.(check int) "no warning for reraise" 0 (List.length (Guard.drain ()))

let test_guard_fallback_is_young_daly () =
  (* The fallback Threshold installs must be the first-order
     (Young/Daly-style) closed form, so degradation is principled, not
     arbitrary. Reproduce the same recover logic against a forced solver
     failure and compare with the closed form directly. *)
  ignore (Guard.drain ());
  let params = Fault.Params.paper ~lambda:0.001 ~c:60.0 ~d:0.0 in
  let n = 3 in
  let closed_form = Core.Threshold.threshold_first_order ~params ~n in
  let v =
    Guard.protect ~context:"test threshold"
      ~recover:(function
        | Numerics.Rootfind.No_bracket _ ->
            Some ("first-order closed form", closed_form)
        | _ -> None)
      (fun () -> raise (Numerics.Rootfind.No_bracket "forced"))
  in
  Alcotest.(check (float 0.0)) "fallback = Young/Daly closed form"
    closed_form v;
  Alcotest.(check int) "degradation recorded" 1 (List.length (Guard.drain ()))

(* Journal *)

let e1 =
  {
    Journal.c = 60.0;
    strategy = "YoungDaly";
    t = 1.0 /. 3.0;
    mean = Float.pi;
    ci95 = 0.001;
    mean_failures = 1.5;
    mean_checkpoints = 4.0;
  }

let e2 = { e1 with Journal.strategy = "SingleFinal"; mean = 0.25 }
let e3 = { e1 with Journal.t = 500.0; mean = 0.5 }

let entry_eq (a : Journal.entry) (b : Journal.entry) =
  a.Journal.c = b.Journal.c
  && a.Journal.strategy = b.Journal.strategy
  && a.Journal.t = b.Journal.t
  && a.Journal.mean = b.Journal.mean
  && a.Journal.ci95 = b.Journal.ci95
  && a.Journal.mean_failures = b.Journal.mean_failures
  && a.Journal.mean_checkpoints = b.Journal.mean_checkpoints

let test_journal_roundtrip () =
  with_temp (fun path ->
      let j = Journal.open_ ~path ~key:"deadbeef" () in
      List.iter (Journal.append j) [ e1; e2; e3 ];
      Journal.close j;
      let j = Journal.open_ ~path ~key:"deadbeef" () in
      Alcotest.(check (list string)) "clean reopen" [] (Journal.warnings j);
      Alcotest.(check int) "all entries" 3 (Journal.length j);
      List.iter
        (fun (e : Journal.entry) ->
          match
            Journal.find j ~c:e.Journal.c ~strategy:e.Journal.strategy
              ~t:e.Journal.t
          with
          | Some got ->
              Alcotest.(check bool) "bit-exact roundtrip" true (entry_eq e got)
          | None -> Alcotest.fail "journaled entry not found")
        [ e1; e2; e3 ];
      (match Journal.find j ~c:60.0 ~strategy:"SingleFinal" ~t:(1.0 /. 3.0) with
      | Some e -> Alcotest.(check (float 0.0)) "find" 0.25 e.Journal.mean
      | None -> Alcotest.fail "exact float lookup failed");
      Alcotest.(check bool) "missing point" true
        (Journal.find j ~c:60.0 ~strategy:"YoungDaly" ~t:999.0 = None);
      Journal.close j)

let test_journal_key_mismatch_resets () =
  with_temp (fun path ->
      let j = Journal.open_ ~path ~key:"aaaa" () in
      Journal.append j e1;
      Journal.close j;
      let j = Journal.open_ ~path ~key:"bbbb" () in
      Alcotest.(check int) "reset journal is empty" 0 (Journal.length j);
      Alcotest.(check bool) "warned about the reset" true
        (List.exists (fun w -> contains w "did not match") (Journal.warnings j));
      (* The foreign journal is preserved in quarantine, not destroyed. *)
      Alcotest.(check bool) "foreign data quarantined" true
        (Sys.file_exists (path ^ ".quarantine"));
      Journal.close j)

let test_journal_key_mismatch_strict_fails () =
  with_temp (fun path ->
      let j = Journal.open_ ~path ~key:"aaaa" () in
      Journal.append j e1;
      Journal.close j;
      (match Journal.open_ ~strict:true ~path ~key:"bbbb" () with
      | _ -> Alcotest.fail "strict resume accepted foreign journal"
      | exception Failure msg ->
          Alcotest.(check bool) "explains the refusal" true
            (contains msg "refusing to resume"));
      (* The mismatched file must be untouched by the failed open. *)
      let j = Journal.open_ ~path ~key:"aaaa" () in
      Alcotest.(check int) "original data intact" 1 (Journal.length j);
      Journal.close j)

let test_journal_corrupt_tail_recovery () =
  with_temp (fun path ->
      let j = Journal.open_ ~path ~key:"cafe" () in
      List.iter (Journal.append j) [ e1; e2 ];
      Journal.close j;
      (* Simulate a crash mid-append: garbage after the good records. *)
      let oc = open_out_gen [ Open_wronly; Open_append ] 0o644 path in
      output_string oc "p 60 YoungDaly garbage-without-checksum\n";
      close_out oc;
      let j = Journal.open_ ~path ~key:"cafe" () in
      Alcotest.(check bool) "warned about truncation" true
        (List.exists (fun w -> contains w "truncated") (Journal.warnings j));
      Alcotest.(check int) "good records kept" 2 (Journal.length j);
      (* The journal keeps working after recovery... *)
      Journal.append j e3;
      Journal.close j;
      (* ...and the recovered-then-extended file reloads cleanly. *)
      let j = Journal.open_ ~path ~key:"cafe" () in
      Alcotest.(check (list string)) "clean after recovery" []
        (Journal.warnings j);
      Alcotest.(check int) "three records" 3 (Journal.length j);
      Journal.close j)

let test_journal_torn_final_write () =
  with_temp (fun path ->
      let j = Journal.open_ ~path ~key:"cafe" () in
      List.iter (Journal.append j) [ e1; e2; e3 ];
      Journal.close j;
      (* Chop bytes off the last record, losing its newline. *)
      let len = (Unix.stat path).Unix.st_size in
      Unix.truncate path (len - 5);
      let j = Journal.open_ ~path ~key:"cafe" () in
      Alcotest.(check int) "torn record dropped" 2 (Journal.length j);
      Alcotest.(check bool) "warned" true (Journal.warnings j <> []);
      Journal.close j)

let test_journal_garbage_header_quarantined () =
  (* An irrecoverably corrupt journal (header not even well-formed) is
     quarantined and restarted in BOTH modes: under --resume this costs
     a recomputation of the point, never the campaign. *)
  List.iter
    (fun strict ->
      with_temp (fun path ->
          let oc = open_out path in
          output_string oc "!! this was never a journal\nrandom bytes\n";
          close_out oc;
          let j = Journal.open_ ~strict ~path ~key:"cafe" () in
          Alcotest.(check int) "restarted empty" 0 (Journal.length j);
          Alcotest.(check bool) "warned about the quarantine" true
            (List.exists
               (fun w -> contains w "quarantined")
               (Journal.warnings j));
          Alcotest.(check bool) "sick file preserved" true
            (Sys.file_exists (path ^ ".quarantine"));
          Alcotest.(check bool) "reason sidecar written" true
            (Sys.file_exists (path ^ ".quarantine.reason"));
          (* The restarted journal is fully functional. *)
          Journal.append j e1;
          Journal.close j;
          let j = Journal.open_ ~path ~key:"cafe" () in
          Alcotest.(check int) "restart holds the new record" 1
            (Journal.length j);
          Journal.close j))
    [ false; true ]

let test_journal_torn_header_quarantined () =
  with_temp (fun path ->
      (* A crash during the very first write: a header with no newline. *)
      let oc = open_out path in
      output_string oc "# fixedlen-jour";
      close_out oc;
      let j = Journal.open_ ~strict:true ~path ~key:"cafe" () in
      Alcotest.(check int) "restarted empty" 0 (Journal.length j);
      Alcotest.(check bool) "quarantined, not fatal" true
        (Sys.file_exists (path ^ ".quarantine"));
      Journal.close j)

let test_journal_unwritable_path_fails_cleanly () =
  match
    Journal.open_ ~path:"/nonexistent-dir/x.journal" ~key:"cafe" ()
  with
  | _ -> Alcotest.fail "unwritable path accepted"
  | exception Failure msg ->
      Alcotest.(check bool) "names the journal" true
        (contains msg "cannot open journal /nonexistent-dir/x.journal")

let test_journal_chaos_fs_append_repairs () =
  with_temp (fun path ->
      let j = Journal.open_ ~path ~key:"cafe" () in
      Journal.append j e1;
      Journal.close j;
      (* Every append fails after a partial write; the repair must leave
         the file exactly as it was. *)
      let fs = Robust.Chaos_fs.create ~error_rate:1.0 ~seed:2L () in
      let j = Journal.open_ ~fs ~path ~key:"cafe" () in
      Alcotest.(check (list string)) "clean open" [] (Journal.warnings j);
      (match Journal.append j e2 with
      | () -> Alcotest.fail "injected I/O error did not surface"
      | exception Unix.Unix_error ((Unix.EIO | Unix.ENOSPC), _, _) -> ());
      Journal.close j;
      Alcotest.(check bool) "chaos struck" true
        (Robust.Chaos_fs.injected_errors fs > 0);
      let j = Journal.open_ ~path ~key:"cafe" () in
      Alcotest.(check (list string)) "repaired: no recovery needed" []
        (Journal.warnings j);
      Alcotest.(check int) "first record intact" 1 (Journal.length j);
      Journal.append j e2;
      Journal.close j;
      let j = Journal.open_ ~path ~key:"cafe" () in
      Alcotest.(check int) "retried append landed" 2 (Journal.length j);
      Journal.close j)

let test_journal_validation () =
  with_temp (fun path ->
      (match Journal.open_ ~path ~key:"bad key" () with
      | _ -> Alcotest.fail "whitespace key accepted"
      | exception Invalid_argument _ -> ());
      let j = Journal.open_ ~path ~key:"ok" () in
      (match Journal.append j { e1 with Journal.strategy = "a b" } with
      | () -> Alcotest.fail "whitespace strategy accepted"
      | exception Invalid_argument _ -> ());
      Journal.close j;
      (match Journal.append j e1 with
      | () -> Alcotest.fail "append after close accepted"
      | exception Invalid_argument _ -> ()))

(* Runner-level resilience: resume and chaos-equivalence, on the tiny
   spec of {!Runner_fixtures}. The process backend has its own
   executable, test_isolation. *)

let test_chaos_with_retry_matches_fault_free () =
  Parallel.Pool.with_pool (fun pool ->
      let clean = Experiments.Runner.run ~pool tiny_spec in
      let chaos = Chaos.create ~failure_rate:0.5 ~seed:3L () in
      let retry = Retry.make ~attempts:8 ~base_delay:0.0 () in
      let chaotic = Experiments.Runner.run ~pool ~retry ~chaos tiny_spec in
      Alcotest.(check bool) "chaos actually struck" true
        (Chaos.injected_failures chaos > 0);
      check_same_result clean chaotic)

let test_chaos_fs_with_retry_matches_fault_free () =
  (* Filesystem chaos on the journal write path: injected EIO/ENOSPC
     fail some appends mid-record, the repair truncates back to the
     record boundary, and the shared retry budget re-appends — so the
     journaled sweep still matches a fault-free run bit for bit. *)
  Parallel.Pool.with_pool (fun pool ->
      with_temp (fun path ->
          let clean = Experiments.Runner.run ~pool tiny_spec in
          let key = Experiments.Spec.fingerprint tiny_spec in
          let fs = Robust.Chaos_fs.create ~error_rate:0.4 ~seed:1L () in
          let retry = Retry.make ~attempts:8 ~base_delay:0.0 () in
          (* Create the store fault-free first: header publication is a
             one-shot outside the per-point retry budget. *)
          Journal.close (Journal.open_ ~path ~key ());
          let j = Journal.open_ ~fs ~path ~key () in
          let chaotic =
            Fun.protect
              ~finally:(fun () -> Journal.close j)
              (fun () ->
                Experiments.Runner.run ~pool ~journal:j ~retry tiny_spec)
          in
          Alcotest.(check bool) "fs chaos actually struck" true
            (Robust.Chaos_fs.injected_errors fs > 0);
          check_same_result clean chaotic;
          (* Every point survived onto disk despite the write faults. *)
          let j = Journal.open_ ~strict:true ~path ~key () in
          Alcotest.(check (list string)) "journal clean on disk" []
            (Journal.warnings j);
          Alcotest.(check int) "all points journaled" 4 (Journal.length j);
          Journal.close j))

let test_resume_skips_journaled_points () =
  Parallel.Pool.with_pool (fun pool ->
      with_temp (fun path ->
          let key = Experiments.Spec.fingerprint tiny_spec in
          let j = Journal.open_ ~path ~key () in
          let first =
            Fun.protect
              ~finally:(fun () -> Journal.close j)
              (fun () -> Experiments.Runner.run ~pool ~journal:j tiny_spec)
          in
          Alcotest.(check int) "all points journaled" 4 (Journal.length j);
          (* Relaunch with chaos that fails EVERY computed task and no
             retries: success is only possible if every point is served
             from the journal. *)
          let j = Journal.open_ ~strict:true ~path ~key () in
          let chaos = Chaos.create ~failure_rate:1.0 ~seed:1L () in
          let resumed =
            Fun.protect
              ~finally:(fun () -> Journal.close j)
              (fun () ->
                Experiments.Runner.run ~pool ~journal:j ~chaos tiny_spec)
          in
          check_same_result first resumed))

let test_partial_resume_completes_the_rest () =
  Parallel.Pool.with_pool (fun pool ->
      with_temp (fun path ->
          let key = Experiments.Spec.fingerprint tiny_spec in
          let full = Experiments.Runner.run ~pool tiny_spec in
          (* Journal only the YoungDaly half, as if the run died there. *)
          let j = Journal.open_ ~path ~key () in
          let module R = Experiments.Runner in
          List.iter
            (fun (curve : R.curve) ->
              if curve.R.name = "YoungDaly" then
                Array.iter
                  (fun (p : R.point) ->
                    Journal.append j
                      {
                        Journal.c = curve.R.c;
                        strategy = curve.R.name;
                        t = p.R.t;
                        mean = p.R.mean;
                        ci95 = p.R.ci95;
                        mean_failures = p.R.mean_failures;
                        mean_checkpoints = p.R.mean_checkpoints;
                      })
                  curve.R.points)
            full.R.curves;
          Journal.close j;
          let j = Journal.open_ ~strict:true ~path ~key () in
          let resumed =
            Fun.protect
              ~finally:(fun () -> Journal.close j)
              (fun () -> Experiments.Runner.run ~pool ~journal:j tiny_spec)
          in
          check_same_result full resumed;
          (* The relaunch computed (and journaled) only the missing half. *)
          let j = Journal.open_ ~strict:true ~path ~key () in
          Alcotest.(check int) "journal completed" 4 (Journal.length j);
          Journal.close j))

let test_resume_builds_only_unjournaled_tables () =
  (* Two C blocks, each needing one DP table. With the C = 5 block fully
     journaled, a resume builds the C = 10 table alone; once the resume
     has journaled that block too, a second one builds nothing. *)
  let spec =
    {
      tiny_spec with
      Experiments.Spec.cs = [ 5.0; 10.0 ];
      strategies =
        [
          Experiments.Spec.Young_daly;
          Experiments.Spec.Dynamic_programming { quantum = 1.0 };
        ];
    }
  in
  Parallel.Pool.with_pool (fun pool ->
      with_temp (fun path ->
          let key = Experiments.Spec.fingerprint spec in
          let full = Experiments.Runner.run ~pool spec in
          let j = Journal.open_ ~path ~key () in
          let module R = Experiments.Runner in
          List.iter
            (fun (curve : R.curve) ->
              if curve.R.c = 5.0 then
                Array.iter
                  (fun (p : R.point) ->
                    Journal.append j
                      {
                        Journal.c = curve.R.c;
                        strategy = curve.R.name;
                        t = p.R.t;
                        mean = p.R.mean;
                        ci95 = p.R.ci95;
                        mean_failures = p.R.mean_failures;
                        mean_checkpoints = p.R.mean_checkpoints;
                      })
                  curve.R.points)
            full.R.curves;
          Journal.close j;
          let resume () =
            let cache = Experiments.Strategy.Cache.create () in
            let j = Journal.open_ ~strict:true ~path ~key () in
            let r =
              Fun.protect
                ~finally:(fun () -> Journal.close j)
                (fun () -> R.run ~pool ~journal:j ~cache spec)
            in
            (r, (Experiments.Strategy.Cache.stats cache).s_builds)
          in
          let first, first_builds = resume () in
          Alcotest.(check int) "first resume builds the C = 10 table" 1
            first_builds;
          check_same_result full first;
          let second, second_builds = resume () in
          Alcotest.(check int) "second resume builds nothing" 0 second_builds;
          check_same_result full second))

let test_sweep_failure_preserves_completed_points () =
  Parallel.Pool.with_pool (fun pool ->
      with_temp (fun path ->
          let key = Experiments.Spec.fingerprint tiny_spec in
          (* Rate-0.5 chaos with no retries: some tasks fail permanently,
             the others must still complete and land in the journal. *)
          let chaos = Chaos.create ~failure_rate:0.5 ~seed:3L () in
          let j = Journal.open_ ~path ~key () in
          (match
             Fun.protect
               ~finally:(fun () -> Journal.close j)
               (fun () ->
                 Experiments.Runner.run ~pool ~journal:j ~chaos tiny_spec)
           with
          | _ -> Alcotest.fail "chaos without retry succeeded"
          | exception Experiments.Runner.Sweep_failure { completed; failed; _ }
            ->
              Alcotest.(check int) "every task accounted for" 4
                (completed + failed);
              Alcotest.(check bool) "some completed" true (completed > 0);
              Alcotest.(check bool) "some failed" true (failed > 0));
          (* Kill/restart: the relaunch on the same journal finishes the
             missing points and matches a fault-free run. *)
          let full = Experiments.Runner.run ~pool tiny_spec in
          let j = Journal.open_ ~strict:true ~path ~key () in
          Alcotest.(check bool) "partial progress persisted" true
            (Journal.length j > 0);
          let resumed =
            Fun.protect
              ~finally:(fun () -> Journal.close j)
              (fun () -> Experiments.Runner.run ~pool ~journal:j tiny_spec)
          in
          check_same_result full resumed))

let test_deadline_partial_then_resume () =
  Parallel.Pool.with_pool (fun pool ->
      with_temp (fun path ->
          let key = Experiments.Spec.fingerprint tiny_spec in
          let full = Experiments.Runner.run ~pool tiny_spec in
          (* A clock that jumps 1s per reading against a 3.5s budget:
             early grid points fit the budget, later ones miss it. *)
          let ticks = Atomic.make 0 in
          let now () = float_of_int (Atomic.fetch_and_add ticks 1) in
          let deadline = Robust.Deadline.start ~now ~budget:3.5 () in
          let j = Journal.open_ ~path ~key () in
          let cut =
            Fun.protect
              ~finally:(fun () -> Journal.close j)
              (fun () ->
                Experiments.Runner.run ~pool ~deadline ~journal:j tiny_spec)
          in
          let module R = Experiments.Runner in
          Alcotest.(check bool) "partial" true cut.R.partial;
          Alcotest.(check bool) "some points missed" true (cut.R.missed > 0);
          Alcotest.(check bool) "not everything missed" true (cut.R.missed < 4);
          (* Whatever completed is already durable. *)
          let j = Journal.open_ ~strict:true ~path ~key () in
          Alcotest.(check int) "completed points journaled"
            (4 - cut.R.missed) (Journal.length j);
          (* Resuming without a deadline finishes the rest and matches
             the uninterrupted run bit for bit. *)
          let resumed =
            Fun.protect
              ~finally:(fun () -> Journal.close j)
              (fun () -> Experiments.Runner.run ~pool ~journal:j tiny_spec)
          in
          Alcotest.(check bool) "resume completes" false resumed.R.partial;
          check_same_result full resumed))

let test_deadline_zero_misses_everything () =
  Parallel.Pool.with_pool (fun pool ->
      let deadline = Robust.Deadline.start ~budget:0.0 () in
      let r = Experiments.Runner.run ~pool ~deadline tiny_spec in
      let module R = Experiments.Runner in
      Alcotest.(check bool) "partial" true r.R.partial;
      Alcotest.(check int) "every point missed" 4 r.R.missed;
      Alcotest.(check int) "no curves" 0 (List.length r.R.curves))

let test_fingerprint_distinguishes_specs () =
  let fp = Experiments.Spec.fingerprint in
  let base = fp tiny_spec in
  Alcotest.(check string) "stable" base (fp tiny_spec);
  List.iter
    (fun (label, spec') ->
      if fp spec' = base then Alcotest.failf "%s shares the fingerprint" label)
    [
      ("seed", { tiny_spec with Experiments.Spec.seed = 8L });
      ("n_traces", { tiny_spec with Experiments.Spec.n_traces = 26 });
      ("lambda", { tiny_spec with Experiments.Spec.lambda = 0.02 });
      ( "strategies",
        { tiny_spec with Experiments.Spec.strategies = [ Experiments.Spec.Young_daly ] } );
    ]

let () =
  Alcotest.run "robust"
    [
      ( "retry",
        [
          Alcotest.test_case "transient failure recovers" `Quick
            test_retry_transient_recovers;
          Alcotest.test_case "budget exhaustion" `Quick test_retry_exhaustion;
          Alcotest.test_case "no_retry tries once" `Quick
            test_retry_no_retry_single_attempt;
          Alcotest.test_case "deterministic jittered backoff" `Quick
            test_retry_deterministic_jittered_backoff;
          Alcotest.test_case "sleep schedule" `Quick
            test_retry_sleeps_recorded_delays;
          Alcotest.test_case "validation" `Quick test_retry_validation;
          Alcotest.test_case "attempt numbering convention" `Quick
            test_retry_attempt_numbering;
          Alcotest.test_case "decorrelated jitter" `Quick
            test_retry_decorrelated_jitter;
          Alcotest.test_case "max_delay clamps both modes" `Quick
            test_retry_max_delay_clamps_both_modes;
          Alcotest.test_case "decorrelated run schedule" `Quick
            test_retry_decorrelated_run_schedule;
          Alcotest.test_case "decorrelated validation" `Quick
            test_retry_decorrelated_validation;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "rate extremes" `Quick test_chaos_rate_extremes;
          Alcotest.test_case "deterministic and counted" `Quick
            test_chaos_deterministic_and_counted;
          Alcotest.test_case "rate validation" `Quick test_chaos_rate_validation;
          Alcotest.test_case "delay decisions deterministic" `Quick
            test_chaos_delay_deterministic;
          Alcotest.test_case "hang decisions deterministic" `Quick
            test_chaos_hang_deterministic;
        ] );
      ( "deadline",
        [
          Alcotest.test_case "unlimited" `Quick test_deadline_unlimited;
          Alcotest.test_case "expiry against a fake clock" `Quick
            test_deadline_expiry;
          Alcotest.test_case "zero budget starts expired" `Quick
            test_deadline_zero_budget;
          Alcotest.test_case "validation" `Quick test_deadline_validation;
        ] );
      ( "guard",
        [
          Alcotest.test_case "passthrough" `Quick test_guard_passthrough;
          Alcotest.test_case "fallback records warning" `Quick
            test_guard_fallback_records_warning;
          Alcotest.test_case "unrecoverable reraises" `Quick
            test_guard_unrecoverable_reraises;
          Alcotest.test_case "fallback is Young/Daly" `Quick
            test_guard_fallback_is_young_daly;
        ] );
      ( "journal",
        [
          Alcotest.test_case "roundtrip" `Quick test_journal_roundtrip;
          Alcotest.test_case "key mismatch resets" `Quick
            test_journal_key_mismatch_resets;
          Alcotest.test_case "key mismatch strict fails" `Quick
            test_journal_key_mismatch_strict_fails;
          Alcotest.test_case "corrupt tail recovery" `Quick
            test_journal_corrupt_tail_recovery;
          Alcotest.test_case "torn final write" `Quick
            test_journal_torn_final_write;
          Alcotest.test_case "garbage header quarantined" `Quick
            test_journal_garbage_header_quarantined;
          Alcotest.test_case "torn header quarantined" `Quick
            test_journal_torn_header_quarantined;
          Alcotest.test_case "unwritable path fails cleanly" `Quick
            test_journal_unwritable_path_fails_cleanly;
          Alcotest.test_case "chaos-fs append error repairs" `Quick
            test_journal_chaos_fs_append_repairs;
          Alcotest.test_case "validation" `Quick test_journal_validation;
        ] );
      ( "runner resilience",
        [
          Alcotest.test_case "chaos + retry = fault-free" `Slow
            test_chaos_with_retry_matches_fault_free;
          Alcotest.test_case "fs chaos + retry = fault-free" `Slow
            test_chaos_fs_with_retry_matches_fault_free;
          Alcotest.test_case "resume skips journaled points" `Slow
            test_resume_skips_journaled_points;
          Alcotest.test_case "partial resume completes the rest" `Slow
            test_partial_resume_completes_the_rest;
          Alcotest.test_case "resume builds only unjournaled tables" `Slow
            test_resume_builds_only_unjournaled_tables;
          Alcotest.test_case "failed sweep preserves completed points" `Slow
            test_sweep_failure_preserves_completed_points;
          Alcotest.test_case "deadline partial then resume" `Slow
            test_deadline_partial_then_resume;
          Alcotest.test_case "zero deadline misses everything" `Slow
            test_deadline_zero_misses_everything;
          Alcotest.test_case "fingerprint distinguishes specs" `Quick
            test_fingerprint_distinguishes_specs;
        ] );
    ]
