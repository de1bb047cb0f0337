(* The strategy registry: CLI spelling round-trips, display names vs
   report labels, the compiled-table cache counters, trace-seed
   derivation, and a committed golden CSV pinning the full
   spec -> registry -> cache -> streaming-evaluator path bit-for-bit. *)

module Spec = Experiments.Spec
module Strategy = Experiments.Strategy
module Figures = Experiments.Figures
module Runner = Experiments.Runner
module Report = Experiments.Report

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

(* spelling round-trips *)

let test_round_trip () =
  let canonical =
    List.map (fun (e : Strategy.entry) -> e.Strategy.example) Strategy.entries
  in
  let quantum_variants =
    Spec.
      [
        Dynamic_programming { quantum = 0.5 };
        Dynamic_programming { quantum = 2.0 };
        Dynamic_programming { quantum = 10.0 };
        Optimal_unrestricted { quantum = 0.25 };
        Renewal_dp { quantum = 5.0 };
        (* not representable in %g: forces the exact 17-digit fallback *)
        Dynamic_programming { quantum = 1.0 /. 3.0 };
      ]
  in
  List.iter
    (fun s ->
      let spelled = Strategy.to_string s in
      match Strategy.of_string spelled with
      | Ok s' when s' = s -> ()
      | Ok s' ->
          Alcotest.failf "%S parsed back as %s, not %s" spelled
            (Spec.strategy_name s') (Spec.strategy_name s)
      | Error e -> Alcotest.failf "%S did not parse: %s" spelled e)
    (canonical @ quantum_variants)

let test_spellings () =
  let ok spelled expect =
    match Strategy.of_string spelled with
    | Ok s when s = expect -> ()
    | Ok s ->
        Alcotest.failf "%S -> %s, expected %s" spelled (Spec.strategy_name s)
          (Spec.strategy_name expect)
    | Error e -> Alcotest.failf "%S rejected: %s" spelled e
  in
  ok "dp" (Spec.Dynamic_programming { quantum = 1.0 });
  ok "dp:0.5" (Spec.Dynamic_programming { quantum = 0.5 });
  ok "optimal:2" (Spec.Optimal_unrestricted { quantum = 2.0 });
  ok "young-daly" Spec.Young_daly;
  let err spelled =
    match Strategy.of_string spelled with
    | Ok s -> Alcotest.failf "%S accepted as %s" spelled (Spec.strategy_name s)
    | Error e -> e
  in
  Alcotest.(check bool) "unknown keyword lists spellings" true
    (contains ~needle:"young-daly" (err "bogus"));
  ignore (err "dp:0");
  ignore (err "dp:nope");
  ignore (err "young-daly:2");
  (match Strategy.of_string_list " young-daly, dp:2 ,no-checkpoint" with
  | Ok
      [
        Spec.Young_daly;
        Spec.Dynamic_programming { quantum = 2.0 };
        Spec.No_checkpoint;
      ] ->
      ()
  | Ok _ -> Alcotest.fail "list parsed to the wrong strategies"
  | Error e -> Alcotest.failf "list rejected: %s" e);
  match Strategy.of_string_list "" with
  | Ok _ -> Alcotest.fail "empty list accepted"
  | Error _ -> ()

(* prediction-era spellings: optional arguments, embedded commas in
   of_string_list, and out-of-range rejections *)

let test_prediction_spellings () =
  let ok spelled expect =
    match Strategy.of_string spelled with
    | Ok s when s = expect -> ()
    | Ok s ->
        Alcotest.failf "%S -> %s, expected %s" spelled (Spec.strategy_name s)
          (Spec.strategy_name expect)
    | Error e -> Alcotest.failf "%S rejected: %s" spelled e
  in
  ok "restart" Spec.Restart;
  ok "predicted-young-daly" (Spec.Predicted_young_daly { p = 1.0; r = 1.0 });
  ok "predicted-young-daly:0.8,0.9"
    (Spec.Predicted_young_daly { p = 0.8; r = 0.9 });
  ok "proactive-window" (Spec.Proactive_window { w = 60.0 });
  ok "proactive-window:45" (Spec.Proactive_window { w = 45.0 });
  let err spelled =
    match Strategy.of_string spelled with
    | Ok s -> Alcotest.failf "%S accepted as %s" spelled (Spec.strategy_name s)
    | Error e -> e
  in
  ignore (err "restart:2");
  ignore (err "predicted-young-daly:0.8");
  ignore (err "predicted-young-daly:1.5,0.5");
  ignore (err "predicted-young-daly:0.8,-0.1");
  ignore (err "proactive-window:-3");
  ignore (err "proactive-window:nope");
  (* A strategy argument may itself contain a comma: the list splitter
     only opens a new strategy at a registered keyword. *)
  match
    Strategy.of_string_list
      "young-daly, predicted-young-daly:0.8,0.9, proactive-window:45, restart"
  with
  | Ok
      [
        Spec.Young_daly;
        Spec.Predicted_young_daly { p = 0.8; r = 0.9 };
        Spec.Proactive_window { w = 45.0 };
        Spec.Restart;
      ] ->
      ()
  | Ok l ->
      Alcotest.failf "embedded comma mis-split: [%s]"
        (String.concat "; " (List.map Spec.strategy_name l))
  | Error e -> Alcotest.failf "embedded comma rejected: %s" e

(* restart is the no-proactive baseline: exactly single-final under its
   own report label *)

let test_restart_matches_single_final () =
  let params = Fault.Params.paper ~lambda:0.001 ~c:10.0 ~d:5.0 in
  let dist = Fault.Trace.Exponential { rate = 0.001 } in
  let cache = Strategy.Cache.create () in
  Strategy.ensure cache ~params ~horizon:100.0 ~dist [ Spec.Restart ];
  let policy =
    Strategy.compile_exn cache ~params ~horizon:100.0 ~dist Spec.Restart
  in
  Alcotest.(check string) "report label" "Restart" policy.Sim.Policy.name;
  Alcotest.(check int) "no table built" 0 (Strategy.Cache.builds cache);
  let run policy trace =
    Sim.Engine.run ~params ~horizon:100.0 ~policy trace
  in
  let reference = Core.Policies.single_final ~params in
  List.iter
    (fun iats ->
      let a = run policy (Fault.Trace.of_iats iats) in
      let b = run reference (Fault.Trace.of_iats iats) in
      Alcotest.(check bool) "same work as single-final" true
        (Float.equal a.Sim.Engine.work_saved b.Sim.Engine.work_saved);
      Alcotest.(check bool) "same breakdown" true
        (a.Sim.Engine.breakdown = b.Sim.Engine.breakdown))
    [ [| 1.0e9 |]; [| 50.0; 1.0e9 |]; [| 30.0; 20.0; 1.0e9 |] ]

(* fingerprints: predictor-less specs keep their exact pre-prediction
   hex (journals resume); a predictor keys the journal *)

let test_fingerprint_stability () =
  let spec =
    match Figures.find "fig2" with
    | None -> Alcotest.fail "fig2 missing"
    | Some spec -> spec
  in
  Alcotest.(check bool) "golden spec has no predictor" true
    (spec.Spec.predictor = None);
  Alcotest.(check string) "predictor-less fingerprint pinned"
    "fa064b60fd48c8ec" (Spec.fingerprint spec);
  let with_pred =
    { spec with Spec.predictor = Some { Fault.Predictor.p = 0.8; r = 0.9; w = 30.0 } }
  in
  Alcotest.(check bool) "a predictor changes the fingerprint" true
    (Spec.fingerprint with_pred <> Spec.fingerprint spec);
  let other =
    { spec with Spec.predictor = Some { Fault.Predictor.p = 0.8; r = 0.9; w = 31.0 } }
  in
  Alcotest.(check bool) "every field keys it" true
    (Spec.fingerprint other <> Spec.fingerprint with_pred)

(* display names: the registry, the report labels and the compiled
   policies must all agree, strategy by strategy *)

let test_names_match_labels () =
  let params = Fault.Params.paper ~lambda:0.01 ~c:5.0 ~d:0.0 in
  let dist = Fault.Trace.Exponential { rate = 0.01 } in
  let horizon = 100.0 in
  let cache = Strategy.Cache.create () in
  List.iter
    (fun (e : Strategy.entry) ->
      let s = e.Strategy.example in
      Alcotest.(check string)
        (Strategy.to_string s ^ " registry name")
        (Spec.strategy_name s) (Strategy.name s);
      Strategy.ensure cache ~params ~horizon ~dist [ s ];
      let policy = Strategy.compile_exn cache ~params ~horizon ~dist s in
      Alcotest.(check string)
        (Strategy.to_string s ^ " policy label")
        (Spec.strategy_name s) policy.Sim.Policy.name)
    Strategy.entries

let test_listing_covers_registry () =
  let rows = Strategy.listing () in
  Alcotest.(check int) "one row per entry" (List.length Strategy.entries)
    (List.length rows);
  let md = Strategy.markdown_table () in
  Alcotest.(check bool) "markdown header" true
    (contains ~needle:"| CLI spelling | Strategy | Description |" md);
  List.iter
    (fun (cli, name, _) ->
      if not (contains ~needle:cli md && contains ~needle:name md) then
        Alcotest.failf "markdown table misses %s (%s)" cli name)
    rows

(* cache: a missing table is a diagnosed configuration error, never an
   exception out of a float-keyed assoc lookup *)

let test_missing_table_diagnosed () =
  let params = Fault.Params.paper ~lambda:0.01 ~c:5.0 ~d:0.0 in
  let dist = Fault.Trace.Exponential { rate = 0.01 } in
  let cache = Strategy.Cache.create () in
  (match
     Strategy.compile cache ~params ~horizon:100.0 ~dist
       (Spec.Dynamic_programming { quantum = 1.0 })
   with
  | Ok _ -> Alcotest.fail "compiled a DP with no table in the cache"
  | Error e ->
      let msg = Strategy.error_message e in
      Alcotest.(check bool) "message names the fix" true
        (contains ~needle:"Strategy.ensure" msg);
      Alcotest.(check bool) "message names the kind" true
        (contains ~needle:"optimal(u=1)" msg));
  match
    Strategy.compile_exn cache ~params ~horizon:100.0 ~dist
      (Spec.Dynamic_programming { quantum = 1.0 })
  with
  | _ -> Alcotest.fail "compile_exn succeeded without a table"
  | exception Failure _ -> ()

(* cache counters: a two-sub-plot sweep builds each table exactly once
   and answers the duplicate sub-plot from the cache *)

let test_cache_builds_once () =
  let spec =
    match Figures.find "fig3" with
    | None -> Alcotest.fail "fig3 missing"
    | Some spec ->
        {
          (Figures.scale ~n_traces:30 ~t_step:400.0 ~t_max:1200.0 spec) with
          Spec.cs = [ 80.0; 80.0 ];
        }
  in
  let cache = Strategy.Cache.create () in
  let result = Runner.run ~cache spec in
  Alcotest.(check int) "4 strategies x 2 sub-plots" 8
    (List.length result.Runner.curves);
  (* YD needs no table; FO, NO and DP(u=1) need one kind each. The
     sweep-start warm-up builds them before the first block, so both
     sub-plots' ensure calls are answered from the cache. *)
  Alcotest.(check int) "three tables built exactly once" 3
    (Strategy.Cache.builds cache);
  Alcotest.(check int) "both sub-plots answered from the cache" 6
    (Strategy.Cache.hits cache);
  (* A second sweep against the same shared cache — the campaign
     situation (fig2 = fig7) — builds nothing further. *)
  let (_ : Runner.result) = Runner.run ~cache spec in
  Alcotest.(check int) "shared cache: no rebuild across sweeps" 3
    (Strategy.Cache.builds cache)

(* The adaptive wrapper's re-plan hook goes through the same cache:
   the first visit to a degraded λ builds its table, every revisit
   hits. This is the counter pair the replan drill pins end to end. *)
let test_adaptive_replans_hit_cache () =
  let params = Fault.Params.paper ~lambda:0.001 ~c:20.0 ~d:5.0 in
  let dist = Fault.Trace.Exponential { rate = 0.001 } in
  let horizon = 400.0 in
  let cache = Strategy.Cache.create () in
  let inner = Spec.Dynamic_programming { quantum = 1.0 } in
  Strategy.ensure cache ~params ~horizon ~dist [ inner ];
  let policy =
    Strategy.compile_exn cache ~params ~horizon ~dist (Spec.Adaptive inner)
  in
  Alcotest.(check int) "base table built" 1 (Strategy.Cache.builds cache);
  Alcotest.(check string) "adaptive display name" "AdaptiveDynamicProgramming"
    policy.Sim.Policy.name;
  let adapt p =
    match p.Sim.Policy.adapt with
    | Some f -> f
    | None -> Alcotest.fail "adaptive policy lost its re-plan hook"
  in
  let degraded = Fault.Params.degrade params ~initial:16 ~survivors:8 in
  (* First visit to the degraded λ: a fresh table. *)
  let p1 = adapt policy degraded in
  Alcotest.(check int) "degraded λ builds" 2 (Strategy.Cache.builds cache);
  (* Re-planning back at the original λ: pure hit (the hook also
     re-checks its own level, hence >= 1 new hit, no new build). *)
  let hits_before = Strategy.Cache.hits cache in
  let p2 = adapt p1 params in
  Alcotest.(check int) "revisited λ builds nothing" 2
    (Strategy.Cache.builds cache);
  Alcotest.(check bool) "revisited λ hits" true
    (Strategy.Cache.hits cache > hits_before);
  (* And back to the degraded λ again: still no third build. *)
  let (_ : Sim.Policy.t) = adapt p2 degraded in
  Alcotest.(check int) "both levels stay resident" 2
    (Strategy.Cache.builds cache);
  Alcotest.(check int) "two resident tables" 2
    (Strategy.Cache.resident_tables cache)

(* One DP table: the five DP-backed families require the same k-free
   key at one quantum, so a figure mixing them builds it once. *)
let test_dp_families_share_key () =
  let params = Fault.Params.paper ~lambda:0.001 ~c:20.0 ~d:0.0 in
  let dist = Fault.Trace.Exponential { rate = 0.001 } in
  let keys s =
    List.map
      (Strategy.Cache.key ~params ~horizon:1200.0)
      (Strategy.requires ~dist s)
  in
  let want = keys (Spec.Optimal_unrestricted { quantum = 1.0 }) in
  Alcotest.(check int) "one key" 1 (List.length want);
  List.iter
    (fun s ->
      let got = keys s in
      if
        not
          (List.length got = 1
          && List.for_all2 Strategy.Cache.equal_key want got)
      then Alcotest.failf "%s requires another key" (Strategy.to_string s))
    Spec.
      [
        Dynamic_programming { quantum = 1.0 };
        Adaptive (Dynamic_programming { quantum = 1.0 });
        Proactive_window { w = 60.0 };
        Variable_segments;
      ];
  (* ext-ablation: FirstOrder and NumericalOptimum thresholds, plus one
     u = 1 table for DP, VariableSegments and OptimalUnrestricted. *)
  let spec =
    match Figures.find "ext-ablation" with
    | None -> Alcotest.fail "ext-ablation missing"
    | Some spec -> spec
  in
  Alcotest.(check int) "ext-ablation warms 3 tables" 3
    (Strategy.warm_up_specs (Strategy.Cache.create ()) [ spec ])

(* warm-up: one pass builds each distinct key exactly once, is
   idempotent, matches the serial counters when run on a pool, and a
   pre-warmed sweep reproduces the cold sweep byte for byte *)

let test_warm_up_builds_each_key_once () =
  let spec =
    match Figures.find "fig3" with
    | None -> Alcotest.fail "fig3 missing"
    | Some spec -> Figures.scale ~n_traces:10 ~t_step:400.0 ~t_max:1200.0 spec
  in
  let points = Strategy.warm_points_of_spec spec in
  Alcotest.(check int) "one warm point per sub-plot" 2 (List.length points);
  (* fig3: YD needs no table; FO, NO, DP(u=1) x 2 (params, horizon)
     blocks = 6 distinct keys. *)
  let cache = Strategy.Cache.create () in
  let built = Strategy.warm_up cache points in
  Alcotest.(check int) "builds = #distinct keys" 6 built;
  Alcotest.(check int) "cache counters agree" 6 (Strategy.Cache.builds cache);
  Alcotest.(check int) "warm-up scores no hits" 0 (Strategy.Cache.hits cache);
  Alcotest.(check int) "idempotent: nothing left to build" 0
    (Strategy.warm_up cache points);
  let pooled = Strategy.Cache.create () in
  let pool = Parallel.Pool.create () in
  let built_pooled =
    Fun.protect
      ~finally:(fun () -> Parallel.Pool.shutdown pool)
      (fun () -> Strategy.warm_up ~pool pooled points)
  in
  Alcotest.(check int) "parallel warm-up builds the same keys" 6 built_pooled;
  Alcotest.(check int) "parallel cache counters agree" 6
    (Strategy.Cache.builds pooled)

let test_warmed_sweep_identical () =
  let spec =
    match Figures.find "fig3" with
    | None -> Alcotest.fail "fig3 missing"
    | Some spec ->
        {
          (Figures.scale ~n_traces:20 ~t_step:600.0 ~t_max:1200.0 spec) with
          Spec.cs = [ 80.0 ];
        }
  in
  let csv_of result =
    let path = Filename.temp_file "fixedlen_warm" ".csv" in
    Report.to_csv result ~path;
    let got = In_channel.with_open_bin path In_channel.input_all in
    Sys.remove path;
    got
  in
  let cold_cache = Strategy.Cache.create () in
  let cold = csv_of (Runner.run ~cache:cold_cache spec) in
  let warm_cache = Strategy.Cache.create () in
  let built = Strategy.warm_up_specs warm_cache [ spec ] in
  Alcotest.(check int) "campaign warm-up built the block's tables" 3 built;
  let warmed = csv_of (Runner.run ~cache:warm_cache spec) in
  Alcotest.(check string) "warmed vs cold CSVs byte-identical" cold warmed;
  (* The pre-warmed sweep answers at least as many requests from the
     cache as the cold one (which warmed itself at sweep start). *)
  Alcotest.(check bool) "warmed hits >= cold hits" true
    (Strategy.Cache.hits warm_cache >= Strategy.Cache.hits cold_cache)

(* LRU bound: eviction order (touch-on-lookup), counters, byte bound,
   and a rebuilt-after-eviction table being bit-identical *)

let lru_dist = Fault.Trace.Exponential { rate = 0.01 }
let lru_specs = [ Spec.Dynamic_programming { quantum = 1.0 } ]
let lru_params lambda = Fault.Params.paper ~lambda ~c:5.0 ~d:0.0

(* serve's path: the slot's k-free table, counting a hit or a build *)
let serve cache ~params ~horizon ~quantum =
  ignore (Strategy.serve_table cache ~params ~horizon ~quantum : Core.Optimal.t)

let lru_ensure cache lambda =
  serve cache ~params:(lru_params lambda) ~horizon:50.0 ~quantum:1.0

(* Whether a serve slot answers the lookup without a build. *)
let resident ?(quantum = 1.0) cache params horizon =
  Strategy.Cache.mem cache
    (Strategy.Cache.key ~params ~horizon (Strategy.Cache.Dp { quantum }))

let test_lru_eviction_order () =
  let cache = Strategy.Cache.create ~max_tables:2 () in
  lru_ensure cache 0.01 (* build A *);
  lru_ensure cache 0.02 (* build B *);
  Alcotest.(check int) "two builds" 2 (Strategy.Cache.builds cache);
  Alcotest.(check int) "no evictions under the bound" 0
    (Strategy.Cache.evictions cache);
  lru_ensure cache 0.01 (* hit: A becomes most recent *);
  Alcotest.(check int) "hit builds nothing" 2 (Strategy.Cache.builds cache);
  Alcotest.(check int) "one hit" 1 (Strategy.Cache.hits cache);
  lru_ensure cache 0.03 (* build C: evicts B, the least recently used *);
  Alcotest.(check int) "third build" 3 (Strategy.Cache.builds cache);
  Alcotest.(check int) "one eviction" 1 (Strategy.Cache.evictions cache);
  Alcotest.(check int) "bound holds" 2 (Strategy.Cache.resident_tables cache);
  lru_ensure cache 0.01 (* the touched entry survived *);
  Alcotest.(check int) "touched entry survived" 3
    (Strategy.Cache.builds cache);
  lru_ensure cache 0.02 (* the victim is gone: rebuild *);
  Alcotest.(check int) "victim rebuilds" 4 (Strategy.Cache.builds cache);
  let st = Strategy.Cache.stats cache in
  Alcotest.(check int) "stats: builds" 4 st.Strategy.Cache.s_builds;
  Alcotest.(check int) "stats: hits" 2 st.Strategy.Cache.s_hits;
  Alcotest.(check int) "stats: evictions" 2 st.Strategy.Cache.s_evictions;
  Alcotest.(check int) "stats: resident tables" 2
    st.Strategy.Cache.s_resident_tables;
  Alcotest.(check int) "stats: resident bytes agree"
    (Strategy.Cache.resident_bytes cache)
    st.Strategy.Cache.s_resident_bytes

let test_lru_byte_bound () =
  let unbounded = Strategy.Cache.create () in
  lru_ensure unbounded 0.01;
  let one_table = Strategy.Cache.resident_bytes unbounded in
  Alcotest.(check bool) "a DP table has a positive footprint" true
    (one_table > 0);
  (* A bound smaller than one table: the lone resident entry is never
     the eviction victim, so the cache stays answerable... *)
  let cache = Strategy.Cache.create ~max_bytes:(one_table - 1) () in
  lru_ensure cache 0.01;
  Alcotest.(check int) "lone oversized table stays resident" 1
    (Strategy.Cache.resident_tables cache);
  Alcotest.(check int) "no eviction of the only entry" 0
    (Strategy.Cache.evictions cache);
  Alcotest.(check bool) "the lone table answers" true
    (resident cache (lru_params 0.01) 50.0);
  (* ... but a second insert pushes the older one out. *)
  lru_ensure cache 0.02;
  Alcotest.(check int) "second insert evicts the first" 1
    (Strategy.Cache.evictions cache);
  Alcotest.(check int) "one table resident" 1
    (Strategy.Cache.resident_tables cache);
  Alcotest.(check bool) "resident bytes track the survivor" true
    (Strategy.Cache.resident_bytes cache > 0
    && Strategy.Cache.resident_bytes cache <= one_table + 8)

let test_lru_rebuild_bit_identical () =
  let params = lru_params 0.01 in
  let tables cache =
    ( Strategy.serve_table cache ~params ~horizon:50.0 ~quantum:1.0,
      Strategy.serve_dp_table cache ~params ~horizon:50.0 ~quantum:1.0 )
  in
  let reference = Strategy.Cache.create () in
  lru_ensure reference 0.01;
  let want_opt, want = tables reference in
  let cache = Strategy.Cache.create ~max_tables:1 () in
  lru_ensure cache 0.01;
  lru_ensure cache 0.02 (* evicts the 0.01 slot *);
  Alcotest.(check int) "evicted" 1 (Strategy.Cache.evictions cache);
  lru_ensure cache 0.01 (* rebuild from scratch *);
  let got_opt, got = tables cache in
  for n = 0 to Core.Optimal.horizon_quanta want_opt do
    List.iter
      (fun delta ->
        if
          Int64.bits_of_float (Core.Optimal.value_q want_opt ~n ~delta)
          <> Int64.bits_of_float (Core.Optimal.value_q got_opt ~n ~delta)
          || Core.Optimal.first_checkpoint_q want_opt ~n ~delta
             <> Core.Optimal.first_checkpoint_q got_opt ~n ~delta
          || Core.Optimal.plan_length want_opt ~n ~delta
             <> Core.Optimal.plan_length got_opt ~n ~delta
        then Alcotest.failf "rebuilt k-free table differs at n=%d" n)
      [ false; true ]
  done;
  Alcotest.(check int) "same footprint" (Core.Dp.bytes want)
    (Core.Dp.bytes got);
  Alcotest.(check int) "same kmax" (Core.Dp.kmax want) (Core.Dp.kmax got);
  for n = 0 to Core.Dp.horizon_quanta want do
    Alcotest.(check int)
      (Printf.sprintf "best_k at n=%d" n)
      (Core.Dp.best_k want ~n ~delta:false)
      (Core.Dp.best_k got ~n ~delta:false);
    for k = 1 to Core.Dp.kmax want do
      if
        Core.Dp.first_checkpoint_q want ~n ~k ~delta:false
        <> Core.Dp.first_checkpoint_q got ~n ~k ~delta:false
        || Core.Dp.expected_work_q want ~n ~k ~delta:false
           <> Core.Dp.expected_work_q got ~n ~k ~delta:false
      then Alcotest.failf "rebuilt table differs at n=%d k=%d" n k
    done
  done

(* Bit-exact identity. A serve slot hits when looked up with equal
   values in fresh boxes, and misses when any one of λ, C, R, D, the
   horizon or the quantum moves up by one ulp: no slot matches the
   platform and quantum, or the slot does not cover the longer
   horizon. *)
let test_key_identity =
  let copy x = float_of_string (Printf.sprintf "%h" x) in
  let gen =
    QCheck.Gen.(
      tup6 (float_range 1e-4 0.05) (float_range 0.0 20.0)
        (float_range 0.0 20.0) (float_range 0.0 5.0) (float_range 20.0 60.0)
        (oneofl [ 0.5; 1.0; 2.0 ]))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"keys hit on equal values, miss one ulp away"
       ~count:200 (QCheck.make gen)
       (fun (lambda, c, r, d, horizon, quantum) ->
         let cache = Strategy.Cache.create () in
         serve cache
           ~params:(Fault.Params.make ~lambda ~c ~r ~d)
           ~horizon ~quantum;
         let hit ~lambda ~c ~r ~d ~horizon ~quantum =
           resident ~quantum cache (Fault.Params.make ~lambda ~c ~r ~d) horizon
         in
         let up = Float.succ in
         hit ~lambda:(copy lambda) ~c:(copy c) ~r:(copy r) ~d:(copy d)
           ~horizon:(copy horizon) ~quantum:(copy quantum)
         && (not (hit ~lambda:(up lambda) ~c ~r ~d ~horizon ~quantum))
         && (not (hit ~lambda ~c:(up c) ~r ~d ~horizon ~quantum))
         && (not (hit ~lambda ~c ~r:(up r) ~d ~horizon ~quantum))
         && (not (hit ~lambda ~c ~r ~d:(up d) ~horizon ~quantum))
         && (not (hit ~lambda ~c ~r ~d ~horizon:(up horizon) ~quantum))
         && (not (hit ~lambda ~c ~r ~d ~horizon ~quantum:(up quantum)))
         && Strategy.Cache.builds cache = 1))

(* C = 0.0 and C = -0.0 are bit-distinct keys: neither a serve slot, at
   its own horizon or a shorter one, nor warm-up's dedupe answers one
   from the other's table. *)
let test_signed_zero_keys_distinct () =
  let zero = Fault.Params.make ~lambda:0.01 ~c:0.0 ~r:5.0 ~d:0.0
  and neg_zero = Fault.Params.make ~lambda:0.01 ~c:(-0.0) ~r:5.0 ~d:0.0 in
  let cache = Strategy.Cache.create () in
  let resident = resident cache in
  serve cache ~params:zero ~horizon:100.0 ~quantum:1.0;
  Alcotest.(check bool) "same horizon: C = -0.0 misses" false
    (resident neg_zero 100.0);
  Alcotest.(check bool) "shorter horizon: C = -0.0 misses" false
    (resident neg_zero 50.0);
  Alcotest.(check bool) "shorter horizon: C = 0.0 answers" true
    (resident zero 50.0);
  serve cache ~params:neg_zero ~horizon:100.0 ~quantum:1.0;
  Alcotest.(check int) "C = -0.0 builds its own table" 2
    (Strategy.Cache.builds cache);
  let point params =
    {
      Strategy.wp_params = params;
      wp_horizon = 100.0;
      wp_dist = lru_dist;
      wp_strategies = lru_specs;
    }
  in
  let fresh = Strategy.Cache.create () in
  Alcotest.(check int) "warm-up keeps both spellings, once each" 2
    (Strategy.warm_up fresh
       [ point zero; point neg_zero; point zero; point neg_zero ])

(* Allocation pin: a warm serve-slot hit renders nothing. Rendering one
   key with %.17g costs ~280 minor words and trips the bound. *)
let test_warm_hit_allocation () =
  let cache = Strategy.Cache.create () and n = 1000 in
  lru_ensure cache 0.01;
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    lru_ensure cache 0.01
  done;
  let per_hit = (Gc.minor_words () -. w0) /. float_of_int n in
  if per_hit > 100.0 then
    Alcotest.failf "warm serve_table hit: %.0f minor words (bound 100)" per_hit

let test_lru_validation () =
  List.iter
    (fun thunk ->
      match thunk () with
      | (_ : Strategy.Cache.t) -> Alcotest.fail "invalid bound accepted"
      | exception Invalid_argument _ -> ())
    [
      (fun () -> Strategy.Cache.create ~max_tables:0 ());
      (fun () -> Strategy.Cache.create ~max_bytes:0 ());
      (fun () -> Strategy.Cache.create ~max_tables:(-3) ());
    ]

(* seed derivation: distinct (cost, salt) pairs never share a stream *)

let test_seed_distinctness () =
  let base = 0x5EED_2024L in
  (* the pair the old [int_of_float (c *. 97.0)] salt collapsed *)
  Alcotest.(check bool) "c=10.0 vs c=10.001" true
    (Runner.seed_for base ~c:10.0 ~salt:0
    <> Runner.seed_for base ~c:10.001 ~salt:0);
  Alcotest.(check bool) "salt separates streams" true
    (Runner.seed_for base ~c:10.0 ~salt:0
    <> Runner.seed_for base ~c:10.0 ~salt:1);
  (* every (cost, salt) stream any shipped spec can request, pairwise
     distinct per base seed *)
  let seen = Hashtbl.create 256 in
  List.iter
    (fun (spec : Spec.t) ->
      List.iter
        (fun c ->
          List.iteri
            (fun i _ ->
              let salt = i in
              let seed = Runner.seed_for spec.Spec.seed ~c ~salt in
              match Hashtbl.find_opt seen (spec.Spec.seed, seed) with
              | Some (id, c', salt') when c' <> c || salt' <> salt ->
                  Alcotest.failf
                    "seed collision: %s (c=%g, salt=%d) = %s (c=%g, salt=%d)"
                    spec.Spec.id c salt id c' salt'
              | _ ->
                  Hashtbl.replace seen (spec.Spec.seed, seed)
                    (spec.Spec.id, c, salt))
            (() :: List.map ignore spec.Spec.strategies))
        spec.Spec.cs)
    Figures.all

(* golden figure: the fixed-seed fig2-style sweep must stay bit-identical
   to the committed CSV across refactors of the compilation path *)

let golden_spec () =
  match Figures.find "fig2" with
  | None -> Alcotest.fail "fig2 missing"
  | Some spec -> Figures.scale ~n_traces:40 ~t_step:400.0 ~t_max:2000.0 spec

let test_golden_csv () =
  let result = Runner.run (golden_spec ()) in
  let path = Filename.temp_file "fixedlen_golden" ".csv" in
  Report.to_csv result ~path;
  let read file = In_channel.with_open_bin file In_channel.input_all in
  let got = read path in
  Sys.remove path;
  let want = read "golden_fig2_mini.csv" in
  Alcotest.(check string) "bit-identical to the committed golden" want got

let () =
  Alcotest.run "strategy"
    [
      ( "registry",
        [
          Alcotest.test_case "spelling round-trip" `Quick test_round_trip;
          Alcotest.test_case "spellings and errors" `Quick test_spellings;
          Alcotest.test_case "prediction spellings" `Quick
            test_prediction_spellings;
          Alcotest.test_case "restart is single-final" `Quick
            test_restart_matches_single_final;
          Alcotest.test_case "fingerprint stability" `Quick
            test_fingerprint_stability;
          Alcotest.test_case "names agree with labels" `Quick
            test_names_match_labels;
          Alcotest.test_case "listing covers registry" `Quick
            test_listing_covers_registry;
        ] );
      ( "cache",
        [
          Alcotest.test_case "missing table diagnosed" `Quick
            test_missing_table_diagnosed;
          Alcotest.test_case "tables built once" `Slow test_cache_builds_once;
          Alcotest.test_case "adaptive re-plans hit the cache" `Quick
            test_adaptive_replans_hit_cache;
          Alcotest.test_case "DP families share one key" `Quick
            test_dp_families_share_key;
          Alcotest.test_case "warm-up builds each key once" `Quick
            test_warm_up_builds_each_key_once;
          Alcotest.test_case "warmed sweep bit-identical" `Slow
            test_warmed_sweep_identical;
          test_key_identity;
          Alcotest.test_case "signed zeros are distinct keys" `Quick
            test_signed_zero_keys_distinct;
          Alcotest.test_case "warm hit stays off the minor heap" `Quick
            test_warm_hit_allocation;
        ] );
      ( "lru",
        [
          Alcotest.test_case "eviction order and counters" `Quick
            test_lru_eviction_order;
          Alcotest.test_case "byte bound" `Quick test_lru_byte_bound;
          Alcotest.test_case "rebuild bit-identical" `Quick
            test_lru_rebuild_bit_identical;
          Alcotest.test_case "bound validation" `Quick test_lru_validation;
        ] );
      ( "seeds",
        [ Alcotest.test_case "pairwise distinct" `Quick test_seed_distinctness ] );
      ( "golden",
        [ Alcotest.test_case "fig2-style CSV" `Slow test_golden_csv ] );
    ]
