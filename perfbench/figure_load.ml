(* The figure-paper workload: a seeded Monte-Carlo sweep of two paper
   figures, driven through the public experiment API.

   Campaign.run takes the paper's fixed spec seeds, so a sweep here is
   its no-journal path spelled out over the same public calls —
   Strategy.warm_up_specs over the pool, then Runner.run and
   Report.to_csv per figure on one fresh Strategy.Cache — with the
   workload seed written into every spec. *)

open Experiments

type shape = { figures : string list; n_traces : int; t_step : float option }

let shape_of = function
  | "figure-paper" ->
      Some { figures = [ "fig2"; "fig6" ]; n_traces = 1000; t_step = Some 100.0 }
  | _ -> None

let specs shape ~seed =
  List.map
    (fun id ->
      match Figures.find id with
      | None -> failwith ("perfbench: unknown figure " ^ id)
      | Some spec ->
          let spec = Figures.scale ~n_traces:shape.n_traces ?t_step:shape.t_step spec in
          { spec with Spec.seed = Int64.of_int seed })
    shape.figures

let params_of (spec : Spec.t) ~c =
  Fault.Params.paper ~lambda:spec.Spec.lambda ~c ~d:spec.Spec.d

let grid_points specs =
  List.fold_left
    (fun acc (spec : Spec.t) ->
      List.fold_left
        (fun acc c ->
          acc + (Array.length (Spec.t_grid spec ~c) * List.length spec.Spec.strategies))
        acc spec.Spec.cs)
    0 specs

(* ------------------------------------------------------------------ *)
(* The timed sweep *)

type sweep = {
  wall : float;
  warm_s : float;
  results : Runner.result list;
  stats : Strategy.Cache.stats;
}

let sweep ~pool ~out_dir specs =
  let cache = Strategy.Cache.create () in
  let t0 = Common.now () in
  ignore (Strategy.warm_up_specs ~pool cache specs : int);
  let t1 = Common.now () in
  let results =
    List.map
      (fun (spec : Spec.t) ->
        let r = Runner.run ~pool ~cache spec in
        Report.to_csv r ~path:(Filename.concat out_dir (spec.Spec.id ^ ".csv"));
        r)
      specs
  in
  let t2 = Common.now () in
  { wall = t2 -. t0; warm_s = t1 -. t0; results; stats = Strategy.Cache.stats cache }

let read_file path = In_channel.with_open_bin path In_channel.input_all

let csv_digest ~out_dir specs =
  List.map
    (fun (spec : Spec.t) -> read_file (Filename.concat out_dir (spec.Spec.id ^ ".csv")))
    specs
  |> String.concat ""
  |> Digest.string |> Digest.to_hex

(* Every grid point of every curve is present, in grid order, with a
   proportion in [0, 1]. *)
let check_results checks specs results =
  List.iter2
    (fun (spec : Spec.t) (r : Runner.result) ->
      Common.check checks ((not r.Runner.partial) && r.Runner.missed = 0)
        "%s: partial sweep (%d missed)" spec.Spec.id r.Runner.missed;
      List.iter
        (fun c ->
          let grid = Spec.t_grid spec ~c in
          List.iter
            (fun strategy ->
              match Runner.curve_for r ~c ~strategy with
              | None ->
                  Common.check checks false "%s: no curve for C=%g %s" spec.Spec.id c
                    (Spec.strategy_name strategy)
              | Some cv ->
                  Array.iteri
                    (fun i t ->
                      let ok =
                        i < Array.length cv.Runner.points
                        &&
                        let p = cv.Runner.points.(i) in
                        Float.equal p.Runner.t t && p.Runner.mean >= 0.0 && p.Runner.mean <= 1.0
                      in
                      Common.check checks ok "%s: bad point C=%g %s T=%g" spec.Spec.id c
                        (Spec.strategy_name strategy) t)
                    grid)
            spec.Spec.strategies)
        spec.Spec.cs)
    specs results

(* ------------------------------------------------------------------ *)
(* The layer sweep of a traced run: the same grid, decomposed into the
   calls each layer exposes, so every layer can be timed on its own.
   Trace generation, table builds (one Strategy.ensure per strategy, so
   a build is attributed to its table kind) and cache lookups run in
   the parent; grid points run on the pool as Runner.run runs them,
   each replaying its traces once through Sim.Engine.run and once
   through Sim.Runner.evaluate — the fold's self time is the
   difference. *)

type task_out = {
  mean : float;
  mean_failures : float;
  engine_failures : int;
  replans : int;
  platform_replans : int;
  predictions : int;
  minor_words : float;
}

type layers = {
  mutable iats : int;
  mutable dp_builds : int;
  mutable dp_cells : int;
  mutable dp_bytes : int;
  mutable other_builds : int;
  mutable map_wall : float;
  mutable runs : int;
  mutable failures : int;
  mutable replans : int;
  mutable platform_replans : int;
  mutable predictions : int;
  mutable minor_words : float;
  mutable tasks : int;
  mutable means : ((string * float * string * float) * task_out) list;
}

let lookup_repeats = 100

(* figure-paper's figures predict nothing; ext-predict's predictor over
   their traces keeps Fault.Predictor measured. *)
let stand_in_predictor =
  Option.bind (Figures.find "ext-predict") (fun (s : Spec.t) -> s.Spec.predictor)

let dp_quanta ~dist strategy =
  List.filter_map
    (function Strategy.Cache.Dp { quantum } -> Some quantum | _ -> None)
    (Strategy.requires ~dist strategy)

let layer_sweep ~pool specs =
  let cache = Strategy.Cache.create () in
  let l =
    {
      iats = 0; dp_builds = 0; dp_cells = 0; dp_bytes = 0; other_builds = 0;
      map_wall = 0.0; runs = 0; failures = 0; replans = 0; platform_replans = 0;
      predictions = 0; minor_words = 0.0; tasks = 0; means = [];
    }
  in
  let block (spec : Spec.t) ~dist c =
    let params = params_of spec ~c in
    let grid = Spec.t_grid spec ~c in
    let horizon_max = grid.(Array.length grid - 1) in
    let seed salt = Runner.seed_for spec.Spec.seed ~c ~salt in
    let traces, platforms =
      Spans.span "trace.gen" (fun () ->
          let traces, platforms =
            match spec.Spec.platform with
            | None -> (Fault.Trace.batch ~dist ~seed:(seed 0) ~n:spec.Spec.n_traces, None)
            | Some model ->
                let h =
                  Fault.Trace.platform_batch ~model ~rate:spec.Spec.lambda ~d:spec.Spec.d
                    ~horizon:horizon_max ~seed:(seed 0) ~n:spec.Spec.n_traces
                in
                ( Array.map fst h,
                  Some
                    (Array.map
                       (fun (_, events) ->
                         { Sim.Engine.initial = model.Fault.Trace.nodes; events })
                       h) )
          in
          Array.iter
            (fun tr ->
              Fault.Trace.prefetch tr ~until:horizon_max;
              l.iats <- l.iats + Array.length (Fault.Trace.iats_until tr ~until:horizon_max))
            traces;
          (traces, platforms))
    in
    let predictions =
      Option.map
        (fun pr ->
          Spans.span "predictor.gen" (fun () ->
              Fault.Predictor.batch ~params:pr ~rate:spec.Spec.lambda ~horizon:horizon_max
                ~seed:(seed (-1)) traces))
        spec.Spec.predictor
    in
    if spec.Spec.predictor = None then
      Option.iter
        (fun pr ->
          Spans.span "predictor.gen" (fun () ->
              ignore
                (Fault.Predictor.batch ~params:pr ~rate:spec.Spec.lambda ~horizon:horizon_max
                   ~seed:(seed (-1)) traces)))
        stand_in_predictor;
    List.iter
      (fun strategy ->
        let b0 = Strategy.Cache.builds cache in
        let start = Common.now () in
        Strategy.ensure cache ~params ~horizon:horizon_max ~dist [ strategy ];
        let stop = Common.now () in
        let built = Strategy.Cache.builds cache - b0 in
        let quanta = dp_quanta ~dist strategy in
        if built > 0 && quanta <> [] then begin
          Spans.record "dp.build" ~start ~stop;
          l.dp_builds <- l.dp_builds + built;
          List.iter
            (fun quantum ->
              match Strategy.dp_table cache ~params ~horizon:horizon_max ~quantum with
              | Ok t ->
                  l.dp_cells <- l.dp_cells + (2 * Core.Dp.kmax t * Core.Dp.horizon_quanta t);
                  l.dp_bytes <- l.dp_bytes + Core.Dp.bytes t
              | Error _ -> ())
            quanta
        end
        else if built > 0 then begin
          Spans.record "tables.other_build" ~start ~stop;
          l.other_builds <- l.other_builds + built
        end;
        if built > 0 then
          List.iter
            (fun quantum ->
              for _ = 1 to lookup_repeats do
                Spans.span "cache.lookup" (fun () ->
                    ignore (Strategy.dp_table cache ~params ~horizon:horizon_max ~quantum))
              done)
            quanta)
      spec.Spec.strategies;
    let tasks =
      Array.of_list
        (List.concat_map
           (fun s -> Array.to_list (Array.map (fun t -> (s, t)) grid))
           spec.Spec.strategies)
    in
    let compile strategy =
      Strategy.compile_exn cache ~params ~horizon:horizon_max ~dist strategy
    in
    let task (strategy, horizon) =
      Spans.span "pool.task" (fun () ->
          let policy = Spans.span "cache.compile" (fun () -> compile strategy) in
          let f = ref 0 and rp = ref 0 and pr = ref 0 and pd = ref 0 in
          let mw0 = Gc.minor_words () in
          Spans.span "engine.run" (fun () ->
              Array.iteri
                (fun i tr ->
                  let o =
                    Sim.Engine.run
                      ?platform:(Option.map (fun p -> p.(i)) platforms)
                      ?predictions:(Option.map (fun p -> p.(i)) predictions)
                      ~params ~horizon ~policy tr
                  in
                  f := !f + o.Sim.Engine.failures;
                  rp := !rp + o.Sim.Engine.replans;
                  pr := !pr + o.Sim.Engine.replans_platform;
                  pd := !pd + o.Sim.Engine.predictions_true + o.Sim.Engine.predictions_false)
                traces);
          let minor_words = Gc.minor_words () -. mw0 in
          let policy = compile strategy in
          let r =
            Spans.span "sim_runner.evaluate" (fun () ->
                Sim.Runner.evaluate ?platforms ?predictions ~params ~horizon ~policy traces)
          in
          {
            mean = r.Sim.Runner.proportion.Numerics.Stats.mean;
            mean_failures = r.Sim.Runner.mean_failures;
            engine_failures = !f;
            replans = !rp;
            platform_replans = !pr;
            predictions = !pd;
            minor_words;
          })
    in
    let t0 = Common.now () in
    let outs = Parallel.Pool.map pool ~f:task tasks in
    l.map_wall <- l.map_wall +. (Common.now () -. t0);
    Array.iteri
      (fun i (o : task_out) ->
        let strategy, t = tasks.(i) in
        l.tasks <- l.tasks + 1;
        l.runs <- l.runs + spec.Spec.n_traces;
        l.failures <- l.failures + o.engine_failures;
        l.replans <- l.replans + o.replans;
        l.platform_replans <- l.platform_replans + o.platform_replans;
        l.predictions <- l.predictions + o.predictions;
        l.minor_words <- l.minor_words +. o.minor_words;
        l.means <- ((spec.Spec.id, c, Spec.strategy_name strategy, t), o) :: l.means)
      outs
  in
  List.iter
    (fun (spec : Spec.t) ->
      let dist = Spec.trace_dist spec in
      List.iter
        (fun c -> if Spec.t_grid spec ~c <> [||] then block spec ~dist c)
        spec.Spec.cs)
    specs;
  l

(* The decomposed sweep must reproduce Runner.run point for point, and
   the engine pass must agree with the fold on the failure count. *)
let check_layers checks specs results (l : layers) =
  let tbl = Hashtbl.create 512 in
  List.iter2
    (fun (spec : Spec.t) (r : Runner.result) ->
      List.iter
        (fun (cv : Runner.curve) ->
          Array.iter
            (fun (p : Runner.point) ->
              Hashtbl.replace tbl (spec.Spec.id, cv.Runner.c, cv.Runner.name, p.Runner.t)
                p.Runner.mean)
            cv.Runner.points)
        r.Runner.curves)
    specs results;
  List.iter
    (fun (((id, c, name, t) as key), (o : task_out)) ->
      let n = match List.find_opt (fun (s : Spec.t) -> s.Spec.id = id) specs with
        | Some s -> float_of_int s.Spec.n_traces | None -> 1.0 in
      Common.check checks
        (match Hashtbl.find_opt tbl key with Some m -> Float.equal m o.mean | None -> false)
        "%s: layer sweep differs from Runner.run at C=%g %s T=%g" id c name t;
      Common.check checks
        (Float.abs ((float_of_int o.engine_failures /. n) -. o.mean_failures) < 1e-9)
        "%s: engine failures disagree with the fold at C=%g %s T=%g" id c name t)
    l.means

(* ------------------------------------------------------------------ *)

type env = { pool : Parallel.Pool.t; out_dir : string; specs : Spec.t list }

let setup shape ~seed ~work_dir =
  let pool = Parallel.Pool.create ~domains:(min 2 (Domain.recommended_domain_count ())) () in
  let out_dir = Filename.concat work_dir "csv" in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  { pool; out_dir; specs = specs shape ~seed }

let info env =
  [
    ("pool_domains", string_of_int (Parallel.Pool.domains env.pool));
    ("figures", String.concat "," (List.map (fun (s : Spec.t) -> s.Spec.id) env.specs));
    ("n_traces", string_of_int (List.hd env.specs).Spec.n_traces);
    ("grid_points", string_of_int (grid_points env.specs));
  ]

(* Untraced: sweep repeatedly for [seconds]; every sweep's CSVs must
   hash alike, since the sweep is deterministic. A host-speed reference
   (Common.reference, on the pool's width) runs before the first sweep
   and after each one, and each sweep's wall time is rescaled by the
   mean of the two around it to the reference's nominal host. The
   timings are the median of the rescaled sweeps over those the host
   did not steal from (see Common.least_stolen); the raw medians go to
   the environment record. peak_rss_mb is the process's VmHWM after its
   first sweep, the peak of a one-campaign process: the runtime keeps
   freed heap mapped, so every later sweep starts from a higher
   resident set. *)
let run_untraced env ~seconds checks =
  let domains = Parallel.Pool.domains env.pool in
  let start = Common.now () in
  let rec loop ref_before acc =
    (* Each sweep starts from a compacted heap, so its time does not
       depend on the garbage earlier sweeps left. *)
    Gc.compact ();
    let s, steal =
      Common.with_steal (fun () -> sweep ~pool:env.pool ~out_dir:env.out_dir env.specs)
    in
    let ref_after = Common.reference ~domains in
    let scale = Common.reference_nominal_s /. ((ref_before +. ref_after) /. 2.0) in
    let rss = Common.peak_rss_mb 0 in
    let digest = csv_digest ~out_dir:env.out_dir env.specs in
    check_results checks env.specs s.results;
    let acc = ((s.wall, scale, ref_after, steal), rss, digest) :: acc in
    if Common.now () -. start < seconds then loop ref_after acc else List.rev acc
  in
  let sweeps = loop (Common.reference ~domains) [] in
  let _, first_rss, digest = List.hd sweeps in
  List.iter
    (fun (_, _, d) ->
      Common.check checks (String.equal d digest) "CSV digest changed between sweeps")
    sweeps;
  let points = float_of_int (grid_points env.specs) in
  let kept =
    Common.least_stolen
      (List.map (fun ((w, scale, r, steal), _, _) -> ((w, scale, r), steal)) sweeps)
  in
  let rescaled = List.map (fun (w, scale, _) -> w *. scale) kept in
  let raw = List.map (fun (w, _, _) -> w) kept in
  ( digest,
    [
      ("throughput_per_s", Common.median (List.map (fun w -> points /. w) rescaled));
      ("latency_p50_ms", 1e3 *. Common.median rescaled);
      ("peak_rss_mb", first_rss);
      ("sweeps", float_of_int (List.length sweeps));
      ("raw_throughput_per_s", Common.median (List.map (fun w -> points /. w) raw));
      ("raw_latency_p50_ms", 1e3 *. Common.median raw);
      ("reference_s", Common.median (List.map (fun (_, _, r) -> r) kept));
    ] )

let run_traced env ~spans_path checks =
  Gc.compact ();
  let g0 = Gc.quick_stat () in
  let base = sweep ~pool:env.pool ~out_dir:env.out_dir env.specs in
  let g1 = Gc.quick_stat () in
  check_results checks env.specs base.results;
  let digest = csv_digest ~out_dir:env.out_dir env.specs in
  let timed () =
    let t0 = Common.now () in
    let l = layer_sweep ~pool:env.pool env.specs in
    (l, t0, Common.now ())
  in
  (* Untraced, traced, traced, untraced: a drift in machine speed
     cancels out of the overhead. *)
  let _, a0, a1 = timed () in
  Spans.enabled := true;
  let l, on0, on1 = timed () in
  let _, b0, b1 = timed () in
  Spans.enabled := false;
  let _, c0, c1 = timed () in
  let traced = (on1 -. on0) +. (b1 -. b0) and untraced = (a1 -. a0) +. (c1 -. c0) in
  check_layers checks env.specs base.results l;
  let spans =
    List.filter (fun (s : Spans.t) -> s.start >= on0 && s.stop <= on1) (Spans.all ())
  in
  Spans.write_json spans_path spans;
  let total = Spans.total spans in
  let per x n = if n = 0 then 0.0 else x /. float_of_int n in
  let dp_s = total "dp.build" and engine_s = total "engine.run" in
  ( digest,
    [
      ("dp.build_s", dp_s);
      ("dp.builds", float_of_int l.dp_builds);
      ("dp.cells", float_of_int l.dp_cells);
      ("dp.cells_per_s", if dp_s > 0.0 then float_of_int l.dp_cells /. dp_s else 0.0);
      ("dp.bytes", float_of_int l.dp_bytes);
      ("tables.other_build_s", total "tables.other_build");
      ("tables.other_builds", float_of_int l.other_builds);
      ("cache.warm_up_s", base.warm_s);
      ("cache.builds", float_of_int base.stats.Strategy.Cache.s_builds);
      ("cache.hits", float_of_int base.stats.Strategy.Cache.s_hits);
      ("cache.evictions", float_of_int base.stats.Strategy.Cache.s_evictions);
      ("cache.resident_bytes", float_of_int base.stats.Strategy.Cache.s_resident_bytes);
      ("cache.lookup_us", Spans.mean_us spans "cache.lookup");
      ("cache.compile_us", Spans.mean_us spans "cache.compile");
      ("trace.gen_s", total "trace.gen");
      ("trace.iats", float_of_int l.iats);
      ("predictor.gen_s", total "predictor.gen");
      ("engine.run_s", engine_s);
      ("engine.runs", float_of_int l.runs);
      ("engine.runs_per_s", if engine_s > 0.0 then float_of_int l.runs /. engine_s else 0.0);
      ("engine.minor_words_per_run", per l.minor_words l.runs);
      ("engine.failures", float_of_int l.failures);
      ("engine.replans", float_of_int l.replans);
      ("engine.platform_replans", float_of_int l.platform_replans);
      ("engine.predictions", float_of_int l.predictions);
      ("sim_runner.fold_s", total "sim_runner.evaluate" -. engine_s);
      ( "pool.busy_frac",
        total "pool.task" /. (float_of_int (Parallel.Pool.domains env.pool) *. l.map_wall) );
      ("pool.tasks", float_of_int l.tasks);
      ("gc.minor_mwords", (g1.Gc.minor_words -. g0.Gc.minor_words) /. 1e6);
      ("gc.major_collections", float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
      ("trace_overhead_frac", (traced -. untraced) /. untraced);
      ("untraced_frac", Spans.uncovered_frac spans [ (on0, on1) ]);
    ] )
