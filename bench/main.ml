(* Benchmark harness.

   Two tasks in one executable:

   1. Figure regeneration — one entry per figure of the paper (Figures
      2-12) plus the robustness extensions: re-runs the simulation
      campaign (at a reduced default scale; use --full for the paper's
      1000-trace scale) and prints the series, summary tables and the
      qualitative shape checks recorded in EXPERIMENTS.md.

   2. Bechamel micro-benchmarks — one Test.make per computational
      kernel (DP table build, threshold computation, simulation engine,
      quantised policy evaluation, trace generation), so performance
      regressions in the algorithms are visible.

   Usage: dune exec bench/main.exe -- [--full] [--traces N] [--t-step X]
            [--figures id1,id2] [--skip-figures] [--skip-micro]
            [--eval-json PATH] [--dp-json PATH] [--baseline PATH] *)

let default_traces = 250
let default_t_step = 100.0

type options = {
  traces : int;
  t_step : float option;
  figures : string list option;
  skip_figures : bool;
  skip_micro : bool;
  eval_json : string option;
  dp_json : string option;
  baseline : string option;
  dp_baseline : string option;
  serve_json : string option;
  serve_baseline : string option;
}

let parse_args () =
  let traces = ref default_traces in
  let t_step = ref (Some default_t_step) in
  let figures = ref None in
  let skip_figures = ref false in
  let skip_micro = ref false in
  let eval_json = ref None in
  let dp_json = ref None in
  let baseline = ref None in
  let dp_baseline = ref None in
  let serve_json = ref None in
  let serve_baseline = ref None in
  let rec go = function
    | [] -> ()
    | "--full" :: rest ->
        traces := 1000;
        t_step := None;
        go rest
    | "--traces" :: n :: rest ->
        traces := int_of_string n;
        go rest
    | "--t-step" :: x :: rest ->
        t_step := Some (float_of_string x);
        go rest
    | "--figures" :: ids :: rest ->
        figures := Some (String.split_on_char ',' ids);
        go rest
    | "--skip-figures" :: rest ->
        skip_figures := true;
        go rest
    | "--skip-micro" :: rest ->
        skip_micro := true;
        go rest
    | "--eval-json" :: path :: rest ->
        eval_json := Some path;
        go rest
    | "--dp-json" :: path :: rest ->
        dp_json := Some path;
        go rest
    | "--baseline" :: path :: rest ->
        baseline := Some path;
        go rest
    | "--dp-baseline" :: path :: rest ->
        dp_baseline := Some path;
        go rest
    | "--serve-json" :: path :: rest ->
        serve_json := Some path;
        go rest
    | "--serve-baseline" :: path :: rest ->
        serve_baseline := Some path;
        go rest
    | arg :: _ ->
        Printf.eprintf
          "unknown argument %s\n\
           usage: bench [--full] [--traces N] [--t-step X] [--figures ids] \
           [--skip-figures] [--skip-micro] [--eval-json PATH] \
           [--dp-json PATH] [--baseline PATH] [--dp-baseline PATH] \
           [--serve-json PATH] [--serve-baseline PATH]\n"
          arg;
        exit 2
  in
  go (List.tl (Array.to_list Sys.argv));
  {
    traces = !traces;
    t_step = !t_step;
    figures = !figures;
    skip_figures = !skip_figures;
    skip_micro = !skip_micro;
    eval_json = !eval_json;
    dp_json = !dp_json;
    baseline = !baseline;
    dp_baseline = !dp_baseline;
    serve_json = !serve_json;
    serve_baseline = !serve_baseline;
  }

(* ------------------------------------------------------------------ *)
(* Figure regeneration                                                  *)

let print_series (result : Experiments.Runner.result) =
  (* The rows the paper plots: T -> proportion of work per strategy. *)
  List.iter
    (fun c ->
      let curves =
        List.filter
          (fun (cv : Experiments.Runner.curve) -> cv.Experiments.Runner.c = c)
          result.Experiments.Runner.curves
      in
      match curves with
      | [] -> ()
      | first :: _ ->
          let table =
            Output.Table.create
              ~columns:
                (("T", Output.Table.Right)
                :: List.map
                     (fun (cv : Experiments.Runner.curve) ->
                       (cv.Experiments.Runner.name, Output.Table.Right))
                     curves)
          in
          Array.iteri
            (fun i (p : Experiments.Runner.point) ->
              Output.Table.add_row table
                (Printf.sprintf "%g" p.Experiments.Runner.t
                :: List.map
                     (fun (cv : Experiments.Runner.curve) ->
                       Printf.sprintf "%.3f"
                         cv.Experiments.Runner.points.(i).Experiments.Runner.mean)
                     curves))
            first.Experiments.Runner.points;
          Printf.printf "\n-- %s, C = %g: proportion of work done --\n"
            result.Experiments.Runner.spec.Experiments.Spec.id c;
          Output.Table.print table)
    result.Experiments.Runner.spec.Experiments.Spec.cs

let run_figures options pool =
  let selected =
    match options.figures with
    | None -> Experiments.Figures.all
    | Some ids ->
        List.filter_map
          (fun id ->
            match Experiments.Figures.find id with
            | Some spec -> Some spec
            | None ->
                Printf.eprintf "unknown figure %s (known: %s)\n" id
                  (String.concat ", " Experiments.Figures.ids);
                exit 2)
          ids
  in
  List.iter
    (fun spec ->
      let spec =
        Experiments.Figures.scale ~n_traces:options.traces ?t_step:options.t_step
          spec
      in
      (* Short-horizon figures (fig5) need a grid finer than the global
         step override. *)
      let spec =
        if spec.Experiments.Spec.t_step > spec.Experiments.Spec.t_max /. 10.0
        then
          Experiments.Figures.scale
            ~t_step:(spec.Experiments.Spec.t_max /. 20.0)
            spec
        else spec
      in
      Printf.printf "\n================ %s ================\n"
        spec.Experiments.Spec.id;
      Printf.printf "%s\n" spec.Experiments.Spec.description;
      let result =
        Experiments.Runner.run ~pool
          ~progress:(fun msg -> Printf.eprintf "%s\n%!" msg)
          spec
      in
      print_series result;
      print_newline ();
      Output.Table.print (Experiments.Report.summary_table result);
      print_endline "qualitative checks (paper-shape assertions):";
      print_endline
        (Experiments.Report.render_checks
           (Experiments.Report.qualitative_checks result)))
    selected

(* ------------------------------------------------------------------ *)
(* Exact (noise-free) cross-check: the same curves, computed as exact
   expectations on the quantised model — zero Monte-Carlo variance.     *)

let run_exact options =
  print_endline "\n================ exact cross-check (no Monte-Carlo) ================";
  List.iter
    (fun id ->
      match Experiments.Figures.find id with
      | None -> ()
      | Some spec ->
          let spec =
            Experiments.Figures.scale
              ?t_step:options.t_step
              spec
          in
          let curves = Experiments.Exact.figure spec in
          List.iter
            (fun c ->
              let table =
                Output.Table.create
                  ~columns:
                    [
                      ("strategy", Output.Table.Left);
                      ("mean exact prop.", Output.Table.Right);
                      ("worst exact prop.", Output.Table.Right);
                    ]
              in
              List.iter
                (fun (curve : Experiments.Exact.curve) ->
                  if curve.Experiments.Exact.c = c then begin
                    let values =
                      Array.map snd curve.Experiments.Exact.points
                    in
                    let mean =
                      Array.fold_left ( +. ) 0.0 values
                      /. float_of_int (Array.length values)
                    in
                    let worst = Array.fold_left Float.min infinity values in
                    Output.Table.add_row table
                      [
                        curve.Experiments.Exact.name;
                        Printf.sprintf "%.4f" mean;
                        Printf.sprintf "%.4f" worst;
                      ]
                  end)
                curves;
              Printf.printf "\n-- %s (exact), C = %g --\n" id c;
              Output.Table.print table)
            spec.Experiments.Spec.cs)
    [ "fig3" ]

(* ------------------------------------------------------------------ *)
(* Machine-readable evaluation benchmark (--eval-json)

   Runs one fixed, reduced-scale figure spec through the registry →
   cache → streaming-evaluator stack and writes a small JSON document:
   sweep throughput (grid points and trace evaluations per second), how
   many compiled tables the strategy cache built, and a peak-RSS proxy.
   The committed bench/BENCH_eval.json snapshots form a perf trajectory
   across PRs; CI runs this mode as a smoke test.                       *)

let peak_rss_kb () =
  (* VmHWM from /proc/self/status on Linux; elsewhere fall back to a
     GC-based proxy (major-heap words converted to kB). *)
  let from_proc () =
    let ic = open_in "/proc/self/status" in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec scan () =
          match input_line ic with
          | line ->
              if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
                Scanf.sscanf
                  (String.sub line 6 (String.length line - 6))
                  " %d kB"
                  (fun kb -> Some kb)
              else scan ()
          | exception End_of_file -> None
        in
        scan ())
  in
  match (try from_proc () with _ -> None) with
  | Some kb -> kb
  | None -> (Gc.quick_stat ()).Gc.heap_words * (Sys.word_size / 8) / 1024

let eval_json_spec () =
  (* Fixed scale, independent of --traces/--t-step, so successive
     BENCH_eval.json entries measure the same workload. *)
  match Experiments.Figures.find "fig2" with
  | Some spec -> Experiments.Figures.scale ~n_traces:200 ~t_step:200.0 spec
  | None -> failwith "--eval-json: fig2 spec missing"

let run_eval_json path =
  let spec = eval_json_spec () in
  let cache = Experiments.Strategy.Cache.create () in
  let g0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  let result =
    Parallel.Pool.with_pool (fun pool ->
        Experiments.Runner.run ~pool ~cache spec)
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  let g1 = Gc.quick_stat () in
  let points =
    List.fold_left
      (fun acc (cv : Experiments.Runner.curve) ->
        acc + Array.length cv.Experiments.Runner.points)
      0 result.Experiments.Runner.curves
  in
  let traces = spec.Experiments.Spec.n_traces in
  let oc = open_out path in
  Printf.fprintf oc
    "{\n\
    \  \"spec\": %S,\n\
    \  \"n_traces\": %d,\n\
    \  \"t_step\": %g,\n\
    \  \"grid_points\": %d,\n\
    \  \"elapsed_sec\": %.3f,\n\
    \  \"points_per_sec\": %.2f,\n\
    \  \"trace_evals_per_sec\": %.0f,\n\
    \  \"table_builds\": %d,\n\
    \  \"table_hits\": %d,\n\
    \  \"minor_words\": %.0f,\n\
    \  \"promoted_words\": %.0f,\n\
    \  \"major_words\": %.0f,\n\
    \  \"peak_rss_kb\": %d\n\
     }\n"
    spec.Experiments.Spec.id spec.Experiments.Spec.n_traces
    spec.Experiments.Spec.t_step points elapsed
    (float_of_int points /. elapsed)
    (float_of_int (points * traces) /. elapsed)
    (Experiments.Strategy.Cache.builds cache)
    (Experiments.Strategy.Cache.hits cache)
    (g1.Gc.minor_words -. g0.Gc.minor_words)
    (g1.Gc.promoted_words -. g0.Gc.promoted_words)
    (g1.Gc.major_words -. g0.Gc.major_words)
    (peak_rss_kb ());
  close_out oc;
  Printf.printf
    "eval benchmark: %d grid points in %.2f s (%.1f points/s), %d table \
     build(s), %d cache hit(s); wrote %s\n"
    points elapsed
    (float_of_int points /. elapsed)
    (Experiments.Strategy.Cache.builds cache)
    (Experiments.Strategy.Cache.hits cache)
    path;
  float_of_int points /. elapsed

(* ------------------------------------------------------------------ *)
(* DP table-build micro-benchmark (--dp-json)

   Builds the five DP tables of the fig2 C sweep (C in {10..160},
   lambda = 0.001, D = 0, T = 2000, unit quantum, suggested_kmax cap)
   and reports table cells per second plus allocation counters. The
   committed bench/BENCH_dp.json trajectory tracks the DP core across
   PRs the same way BENCH_eval.json tracks the evaluation stack.       *)

let run_dp_json path =
  let cs = [ 10.0; 20.0; 40.0; 80.0; 160.0 ] in
  let horizon = 2000.0 and quantum = 1.0 in
  Gc.compact ();
  let g0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  let cells =
    List.fold_left
      (fun acc c ->
        let params = Fault.Params.paper ~lambda:0.001 ~c ~d:0.0 in
        let dp =
          Core.Dp.build
            ~kmax:(Core.Dp.suggested_kmax ~params ~horizon)
            ~params ~quantum ~horizon ()
        in
        acc + (2 * Core.Dp.kmax dp * Core.Dp.horizon_quanta dp))
      0 cs
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  let g1 = Gc.quick_stat () in
  let oc = open_out path in
  (* The grid shape is part of the entry so the trajectory stays
     comparable: a workload change shows up as a shape change instead
     of silently re-scaling cells/s. *)
  Printf.fprintf oc
    "{\n\
    \  \"workload\": \"fig2 C sweep, T=2000, u=1, suggested_kmax\",\n\
    \  \"grid_platforms\": %d,\n\
    \  \"grid_horizon\": %g,\n\
    \  \"grid_quantum\": %g,\n\
    \  \"builds\": %d,\n\
    \  \"cells\": %d,\n\
    \  \"elapsed_sec\": %.3f,\n\
    \  \"cells_per_sec\": %.0f,\n\
    \  \"minor_words\": %.0f,\n\
    \  \"promoted_words\": %.0f,\n\
    \  \"major_words\": %.0f,\n\
    \  \"peak_rss_kb\": %d\n\
     }\n"
    (List.length cs) horizon quantum (List.length cs) cells elapsed
    (float_of_int cells /. elapsed)
    (g1.Gc.minor_words -. g0.Gc.minor_words)
    (g1.Gc.promoted_words -. g0.Gc.promoted_words)
    (g1.Gc.major_words -. g0.Gc.major_words)
    (peak_rss_kb ());
  close_out oc;
  Printf.printf
    "dp benchmark: %d cells in %.2f s (%.0f cells/s); wrote %s\n" cells
    elapsed
    (float_of_int cells /. elapsed)
    path;
  float_of_int cells /. elapsed

(* ------------------------------------------------------------------ *)
(* Serve latency benchmark (--serve-json)

   One entry per serving mode, all in one run so the comparisons are
   apples-to-apples on the same box:

   - "handler": the daemon's request brain (Serve.Handler — the exact
     code path a worker runs per query, minus the socket), cold pass
     then warm rounds against the bounded Strategy.Cache. The run
     enforces the cache's reason to exist: warm p99 at least 10x
     better than cold p99.
   - "unix-text", "tcp-text", "tcp-binary": one persistent client
     connection to a live in-process daemon (Serve.Server.start),
     sequential request/reply round trips, warm tables.
   - "tcp-binary-batched": several binary TCP clients, each with
     server-side sessions pinned and queries pipelined in flights, so
     the daemon's worker rounds actually batch
     (Handler.handle_batch). The run enforces the tentpole: batched
     warm throughput at least 2x the sequential unix-text figure.

   The committed bench/BENCH_serve.json trajectory tracks one entry
   per mode across PRs; entries predating the "mode" field are
   handler-mode measurements. *)

let percentile sorted p =
  let n = Array.length sorted in
  sorted.(min (n - 1) (int_of_float (Float.round (p *. float_of_int (n - 1)))))

let serve_platforms = 32

let serve_request i =
  (* 32 distinct platforms: the C sweep spread the paper's figures
     use, each hashing to its own cache key. *)
  Serve.Protocol.Query
    {
      Serve.Protocol.params =
        Fault.Params.paper ~lambda:0.001 ~c:(10.0 +. (5.0 *. float_of_int i))
          ~d:0.0;
      horizon = 500.0;
      quantum = 1.0;
      tleft = 500.0;
      kleft = None;
      recovering = false;
    }

let serve_fail fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "serve benchmark: %s\n" msg;
      exit 1)
    fmt

let expect_answer = function
  | Serve.Protocol.Answer _ -> ()
  | r -> serve_fail "query failed: %s" (Serve.Protocol.render_response r)

(* Handler mode: its own cache, so the cold pass is genuinely cold. *)
let serve_handler_entry () =
  let cache = Experiments.Strategy.Cache.create () in
  let handler = Serve.Handler.create ~cache () in
  let warm_rounds = 8 in
  let timed req =
    let t0 = Unix.gettimeofday () in
    let resp = Serve.Handler.handle handler req in
    let dt = Unix.gettimeofday () -. t0 in
    expect_answer resp;
    dt
  in
  let cold = Array.init serve_platforms (fun i -> timed (serve_request i)) in
  let warm =
    Array.init (warm_rounds * serve_platforms) (fun j ->
        timed (serve_request (j mod serve_platforms)))
  in
  let warm_elapsed = Array.fold_left ( +. ) 0.0 warm in
  Array.sort compare cold;
  Array.sort compare warm;
  let ms t = t *. 1e3 in
  let cold_p50 = percentile cold 0.5 and cold_p99 = percentile cold 0.99 in
  let warm_p50 = percentile warm 0.5 and warm_p99 = percentile warm 0.99 in
  let warm_qps = float_of_int (Array.length warm) /. warm_elapsed in
  let speedup = cold_p99 /. warm_p99 in
  let entry =
    Printf.sprintf
      "{\n\
      \    \"mode\": \"handler\",\n\
      \    \"workload\": \"handler queries, %d platforms, T=500, u=1, %d \
       warm rounds\",\n\
      \    \"cold_queries\": %d,\n\
      \    \"warm_queries\": %d,\n\
      \    \"cold_p50_ms\": %.4f,\n\
      \    \"cold_p99_ms\": %.4f,\n\
      \    \"warm_p50_ms\": %.4f,\n\
      \    \"warm_p99_ms\": %.4f,\n\
      \    \"warm_qps\": %.0f,\n\
      \    \"p99_speedup\": %.1f,\n\
      \    \"table_builds\": %d,\n\
      \    \"table_hits\": %d,\n\
      \    \"peak_rss_kb\": %d\n\
      \  }"
      serve_platforms warm_rounds serve_platforms (Array.length warm)
      (ms cold_p50) (ms cold_p99) (ms warm_p50) (ms warm_p99) warm_qps
      speedup
      (Experiments.Strategy.Cache.builds cache)
      (Experiments.Strategy.Cache.hits cache)
      (peak_rss_kb ())
  in
  Printf.printf
    "serve benchmark: handler cold p99 %.2f ms, warm p99 %.4f ms (%.0fx), \
     %.0f warm queries/s\n"
    (ms cold_p99) (ms warm_p99) speedup warm_qps;
  if speedup < 10.0 then
    serve_fail
      "SERVE CACHE REGRESSION: warm p99 %.4f ms is not 10x better than cold \
       p99 %.4f ms (only %.1fx)"
      (ms warm_p99) (ms cold_p99) speedup;
  (entry, warm_qps)

(* Sequential socket mode: one persistent connection, one round trip
   per query, warm server tables. *)
let serve_sequential_qps ~socket ~binary ~rounds =
  let conn = Serve.Client.connect ~socket in
  Fun.protect
    ~finally:(fun () -> Serve.Client.close conn)
    (fun () ->
      (match Serve.Client.handshake conn ~binary with
      | Ok true -> ()
      | Ok false when not binary -> ()
      | Ok false -> serve_fail "server refused the binary hello"
      | Error msg -> serve_fail "handshake failed: %s" msg);
      let n = rounds * serve_platforms in
      let t0 = Unix.gettimeofday () in
      for j = 0 to n - 1 do
        match
          Serve.Client.request conn (serve_request (j mod serve_platforms))
        with
        | Ok resp -> expect_answer resp
        | Error msg -> serve_fail "request failed: %s" msg
      done;
      float_of_int n /. (Unix.gettimeofday () -. t0))

(* Batched mode: [clients] binary TCP connections, each with one
   session per platform, queries pipelined [flight] at a time so the
   server's worker rounds hold full batches. *)
let serve_batched_qps ~socket ~clients ~flight ~rounds =
  let per_client = rounds * serve_platforms in
  let run_client () =
    let conn = Serve.Client.connect ~socket in
    Fun.protect
      ~finally:(fun () -> Serve.Client.close conn)
      (fun () ->
        (match Serve.Client.handshake conn ~binary:true with
        | Ok true -> ()
        | Ok false -> serve_fail "server refused the binary hello"
        | Error msg -> serve_fail "handshake failed: %s" msg);
        let sids =
          Array.init serve_platforms (fun i ->
              let platform =
                match serve_request i with
                | Serve.Protocol.Query q ->
                    {
                      Serve.Protocol.plat_params = q.Serve.Protocol.params;
                      plat_horizon = q.Serve.Protocol.horizon;
                      plat_quantum = q.Serve.Protocol.quantum;
                    }
                | _ -> assert false
              in
              match
                Serve.Client.request conn
                  (Serve.Protocol.Session_open platform)
              with
              | Ok (Serve.Protocol.Session sid) -> sid
              | Ok r ->
                  serve_fail "session-open answered %s"
                    (Serve.Protocol.render_response r)
              | Error msg -> serve_fail "session-open failed: %s" msg)
        in
        let sent = ref 0 in
        while !sent < per_client do
          let k = min flight (per_client - !sent) in
          let base = !sent in
          Serve.Wire.send_many conn
            (List.init k (fun j ->
                 let sid = sids.((base + j) mod serve_platforms) in
                 Serve.Protocol.request_to_binary
                   (Serve.Protocol.Session_query
                      {
                        Serve.Protocol.sid;
                        sq_tleft = 500.0;
                        sq_kleft = None;
                        sq_recovering = false;
                      })));
          for _ = 1 to k do
            match Serve.Wire.recv conn with
            | Ok payload -> (
                match Serve.Protocol.response_of_binary payload with
                | Ok resp -> expect_answer resp
                | Error msg -> serve_fail "bad batched response: %s" msg)
            | Error e ->
                serve_fail "batched recv failed: %s" (Serve.Wire.error_message e)
          done;
          sent := !sent + k
        done)
  in
  let t0 = Unix.gettimeofday () in
  let threads = List.init clients (fun _ -> Thread.create run_client ()) in
  List.iter Thread.join threads;
  float_of_int (clients * per_client) /. (Unix.gettimeofday () -. t0)

let run_serve_json path =
  let handler_entry, handler_qps = serve_handler_entry () in
  (* One live daemon serves every socket mode: unix + TCP listeners,
     batching enabled, an ephemeral TCP port resolved after start. *)
  let socket_path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "fixedlen-bench-%d.sock" (Unix.getpid ()))
  in
  if Sys.file_exists socket_path then Sys.remove socket_path;
  let clients = 4 and flight = 16 and rounds = 8 in
  let config =
    {
      Serve.Server.socket_path;
      listen = Some "127.0.0.1:0";
      workers = 2;
      queue_capacity = 64;
      batch = clients;
      max_conns = None;
      idle_timeout = None;
      max_sessions = 1024;
      budget = None;
      slow = 0.0;
      journal = None;
      journal_rotate = None;
      journal_compact = false;
      chaos = None;
      chaos_fs = None;
      max_tables = None;
      max_bytes = None;
      quiet = true;
    }
  in
  let handle = Serve.Server.start config in
  let modes =
    Fun.protect
      ~finally:(fun () -> Serve.Server.stop handle)
      (fun () ->
        let port =
          match Serve.Server.tcp_port handle with
          | Some p -> p
          | None -> serve_fail "daemon bound no TCP port"
        in
        let tcp = Printf.sprintf "127.0.0.1:%d" port in
        (* Untimed cold pass: build all tables once so every socket
           mode below measures warm serving, like the handler rounds. *)
        ignore (serve_sequential_qps ~socket:socket_path ~binary:false ~rounds:1);
        [
          ( "unix-text",
            serve_sequential_qps ~socket:socket_path ~binary:false ~rounds );
          ("tcp-text", serve_sequential_qps ~socket:tcp ~binary:false ~rounds);
          ("tcp-binary", serve_sequential_qps ~socket:tcp ~binary:true ~rounds);
          ( "tcp-binary-batched",
            let m = Serve.Server.metrics handle in
            let r0 = Serve.Metrics.requests m
            and b0 = Serve.Metrics.batches m in
            let qps = serve_batched_qps ~socket:tcp ~clients ~flight ~rounds in
            let dr = Serve.Metrics.requests m - r0
            and db = Serve.Metrics.batches m - b0 in
            Printf.printf
              "serve benchmark: batched phase: %d requests over %d worker \
               rounds (%.1f per batch)\n"
              dr db
              (float_of_int dr /. float_of_int (max 1 db));
            qps );
        ])
  in
  let mode_qps name = List.assoc name modes in
  List.iter
    (fun (name, qps) ->
      Printf.printf "serve benchmark: %s %.0f warm queries/s\n" name qps)
    modes;
  let oc = open_out path in
  Printf.fprintf oc "[\n  %s" handler_entry;
  List.iter
    (fun (name, qps) ->
      Printf.fprintf oc
        ",\n\
        \  {\n\
        \    \"mode\": %S,\n\
        \    \"workload\": \"%s queries, %d platforms, T=500, u=1, %d warm \
         rounds%s\",\n\
        \    \"warm_queries\": %d,\n\
        \    \"warm_qps\": %.0f\n\
        \  }"
        name name serve_platforms rounds
        (if String.equal name "tcp-binary-batched" then
           Printf.sprintf ", %d clients, flight %d" clients flight
         else "")
        (rounds * serve_platforms
        * if String.equal name "tcp-binary-batched" then clients else 1)
        qps)
    modes;
  Printf.fprintf oc "\n]\n";
  close_out oc;
  Printf.printf "serve benchmark: wrote %s\n" path;
  let unix_text = mode_qps "unix-text"
  and batched = mode_qps "tcp-binary-batched" in
  if batched < 2.0 *. unix_text then
    serve_fail
      "SERVE NETWORK REGRESSION: tcp-binary-batched %.0f qps is not 2x the \
       sequential unix-text %.0f qps (only %.1fx)"
      batched unix_text (batched /. unix_text);
  ("handler", handler_qps) :: modes

(* ------------------------------------------------------------------ *)
(* Baseline regression gate (--baseline, --serve-baseline)

   Reads the last value of a key from a committed trajectory file
   (bench/BENCH_eval.json, bench/BENCH_serve.json) and fails the run
   when the fresh measurement falls below 70% of it. The generous
   margin absorbs shared-runner noise while still catching
   step-function regressions. *)

let last_json_float ~key:name path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let body = really_input_string ic len in
  close_in ic;
  let key = Printf.sprintf "%S:" name in
  let klen = String.length key in
  let rec last_from pos acc =
    match String.index_from_opt body pos '"' with
    | None -> acc
    | Some q ->
        if q + klen <= len && String.sub body q klen = key then
          let rest = String.sub body (q + klen) (min 64 (len - q - klen)) in
          match Scanf.sscanf_opt rest " %f" (fun v -> v) with
          | Some v -> last_from (q + klen) (Some v)
          | None -> last_from (q + 1) acc
        else last_from (q + 1) acc
  in
  last_from 0 None

let check_floor ~path ~key ~unit fresh =
  match last_json_float ~key path with
  | None ->
      Printf.eprintf "baseline %s holds no %s entry\n" path key;
      exit 1
  | Some baseline ->
      let floor = 0.7 *. baseline in
      if fresh < floor then begin
        Printf.eprintf
          "PERF REGRESSION: %.1f %s is below 70%% of the committed baseline \
           %.1f (floor %.1f)\n"
          fresh unit baseline floor;
        exit 1
      end
      else
        Printf.printf "baseline check: %.1f %s >= 70%% of committed %.1f — ok\n"
          fresh unit baseline

let check_baseline ~path ~points_per_sec =
  check_floor ~path ~key:"points_per_sec" ~unit:"points/s" points_per_sec

(* The serve trajectory is only comparable per mode: a sequential
   unix-text figure says nothing about batched TCP throughput (and vice
   versa). Entries written before the "mode" field existed are
   handler-mode measurements, so a missing mode reads as "handler".
   Gate each fresh mode against the last same-mode entry; finding none
   is a note, not a failure — the first entry of a new mode has no
   peer yet. *)
let check_serve_baseline ~path ~modes =
  let ic = open_in path in
  let len = in_channel_length ic in
  let body = really_input_string ic len in
  close_in ic;
  let float_field chunk name =
    let key = Printf.sprintf "%S:" name in
    let klen = String.length key in
    let clen = String.length chunk in
    let rec find pos =
      match String.index_from_opt chunk pos '"' with
      | None -> None
      | Some q ->
          if q + klen <= clen && String.sub chunk q klen = key then
            match
              Scanf.sscanf_opt
                (String.sub chunk (q + klen) (min 64 (clen - q - klen)))
                " %f"
                (fun v -> v)
            with
            | Some v -> Some v
            | None -> find (q + 1)
          else find (q + 1)
    in
    find 0
  in
  let string_field chunk name =
    let key = Printf.sprintf "%S:" name in
    let klen = String.length key in
    let clen = String.length chunk in
    let rec find pos =
      match String.index_from_opt chunk pos '"' with
      | None -> None
      | Some q ->
          if q + klen <= clen && String.sub chunk q klen = key then
            match
              Scanf.sscanf_opt
                (String.sub chunk (q + klen) (min 128 (clen - q - klen)))
                " %S"
                (fun v -> v)
            with
            | Some v -> Some v
            | None -> find (q + 1)
          else find (q + 1)
    in
    find 0
  in
  let baseline_for mode =
    List.fold_left
      (fun acc chunk ->
        match float_field chunk "warm_qps" with
        | None -> acc
        | Some v ->
            let entry_mode =
              match string_field chunk "mode" with
              | Some m -> m
              | None -> "handler"
            in
            if String.equal entry_mode mode then Some v else acc)
      None
      (String.split_on_char '}' body)
  in
  List.iter
    (fun (mode, qps) ->
      match baseline_for mode with
      | None ->
          Printf.printf
            "baseline check: %s holds no %s serve entry — nothing to gate \
             against\n"
            path mode
      | Some baseline ->
          let floor = 0.7 *. baseline in
          if qps < floor then begin
            Printf.eprintf
              "PERF REGRESSION: %.1f warm queries/s (%s) is below 70%% of \
               the committed baseline %.1f (floor %.1f)\n"
              qps mode baseline floor;
            exit 1
          end
          else
            Printf.printf
              "baseline check: %.1f warm queries/s (%s) >= 70%% of committed \
               %.1f — ok\n"
              qps mode baseline)
    modes

(* The build is serial, so only serial entries set the floor: the
   trajectory also holds row-parallel builds of an earlier kernel,
   marked with a "jobs" field > 1, whose cells/s measure a different
   quantity. Entries without the field are serial. Gate against the
   last serial entry; finding none is a note, not a failure. *)
let check_dp_baseline ~path ~cells_per_sec =
  let ic = open_in path in
  let len = in_channel_length ic in
  let body = really_input_string ic len in
  close_in ic;
  let field chunk name =
    let key = Printf.sprintf "%S:" name in
    let klen = String.length key in
    let clen = String.length chunk in
    let rec find pos =
      match String.index_from_opt chunk pos '"' with
      | None -> None
      | Some q ->
          if q + klen <= clen && String.sub chunk q klen = key then
            match
              Scanf.sscanf_opt
                (String.sub chunk (q + klen) (min 64 (clen - q - klen)))
                " %f"
                (fun v -> v)
            with
            | Some v -> Some v
            | None -> find (q + 1)
          else find (q + 1)
    in
    find 0
  in
  let baseline =
    List.fold_left
      (fun acc chunk ->
        match field chunk "cells_per_sec" with
        | None -> acc
        | Some v ->
            let serial =
              match field chunk "jobs" with Some j -> j = 1.0 | None -> true
            in
            if serial then Some v else acc)
      None
      (String.split_on_char '}' body)
  in
  match baseline with
  | None ->
      Printf.printf
        "baseline check: %s holds no serial dp entry — nothing to gate \
         against\n"
        path
  | Some baseline ->
      let floor = 0.7 *. baseline in
      if cells_per_sec < floor then begin
        Printf.eprintf
          "PERF REGRESSION: %.1f cells/s is below 70%% of the committed \
           baseline %.1f (floor %.1f)\n"
          cells_per_sec baseline floor;
        exit 1
      end
      else
        Printf.printf
          "baseline check: %.1f cells/s >= 70%% of committed %.1f — ok\n"
          cells_per_sec baseline

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the kernels                             *)

let micro_tests () =
  let open Bechamel in
  let params = Fault.Params.paper ~lambda:0.001 ~c:20.0 ~d:0.0 in
  let dp_small =
    Test.make ~name:"dp_build_T500_u1"
      (Staged.stage (fun () ->
           ignore (Core.Dp.build ~params ~quantum:1.0 ~horizon:500.0 ())))
  in
  let dp_capped =
    Test.make ~name:"dp_build_T1000_u1_capped"
      (Staged.stage (fun () ->
           ignore
             (Core.Dp.build
                ~kmax:(Core.Dp.suggested_kmax ~params ~horizon:1000.0)
                ~params ~quantum:1.0 ~horizon:1000.0 ())))
  in
  let thresholds =
    Test.make ~name:"threshold_table_numerical"
      (Staged.stage (fun () ->
           ignore (Core.Threshold.table_numerical ~params ~up_to:2000.0)))
  in
  let gain =
    Test.make ~name:"threshold_gain_n8"
      (Staged.stage (fun () ->
           ignore (Core.Threshold.gain ~params ~t:1800.0 ~n:8)))
  in
  let trace =
    Fault.Trace.create ~dist:(Fault.Trace.Exponential { rate = 0.001 }) ~seed:5L
  in
  Fault.Trace.prefetch trace ~until:2000.0;
  let yd = Core.Policies.young_daly ~params in
  let engine =
    Test.make ~name:"engine_run_T2000_young_daly"
      (Staged.stage (fun () ->
           ignore (Sim.Engine.run ~params ~horizon:2000.0 ~policy:yd trace)))
  in
  let policy_value =
    Test.make ~name:"policy_value_T500_u1"
      (Staged.stage (fun () ->
           ignore
             (Core.Expected.policy_value ~params ~quantum:1.0 ~horizon:500.0
                ~policy:yd)))
  in
  let rng = Numerics.Rng.create ~seed:7L in
  let rng_test =
    Test.make ~name:"rng_exponential_x1000"
      (Staged.stage (fun () ->
           for _ = 1 to 1000 do
             ignore (Numerics.Rng.exponential rng ~rate:0.001)
           done))
  in
  let integral =
    Test.make ~name:"single_final_integral_T500_u1"
      (Staged.stage (fun () ->
           ignore
             (Core.Expected.single_final_value ~params ~quantum:1.0
                ~horizon:500.0)))
  in
  let optimal_build =
    Test.make ~name:"optimal_build_T1000_u1"
      (Staged.stage (fun () ->
           ignore (Core.Optimal.build ~params ~quantum:1.0 ~horizon:1000.0 ())))
  in
  let dp_uncapped =
    (* ablation for the kmax cap: same tables without the cap *)
    Test.make ~name:"dp_build_T1000_u1_full_kmax"
      (Staged.stage (fun () ->
           ignore (Core.Dp.build ~params ~quantum:1.0 ~horizon:1000.0 ())))
  in
  let plan_opt =
    Test.make ~name:"plan_opt_k3_T500"
      (Staged.stage (fun () ->
           ignore
             (Core.Plan_opt.optimize ~params ~tleft:500.0 ~recovering:false
                ~k:3
                ~continuation:(fun _ -> 0.0)
                ())))
  in
  let renewal_build =
    Test.make ~name:"renewal_dp_build_T300_weibull"
      (Staged.stage (fun () ->
           ignore
             (Core.Dp_renewal.build ~params
                ~dist:(Fault.Trace.weibull_with_mtbf ~shape:0.7 ~mtbf:1000.0)
                ~quantum:1.0 ~horizon:300.0 ())))
  in
  Test.make_grouped ~name:"kernels"
    [
      dp_small; dp_capped; dp_uncapped; thresholds; gain; engine; policy_value;
      rng_test; integral; optimal_build; plan_opt; renewal_build;
    ]

let run_micro () =
  let open Bechamel in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~stabilize:true ~quota:(Time.second 0.5) ()
  in
  let raw = Benchmark.all cfg instances (micro_tests ()) in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  print_endline "\n================ kernel micro-benchmarks ================";
  let table =
    Output.Table.create
      ~columns:
        [ ("kernel", Output.Table.Left); ("time per run", Output.Table.Right) ]
  in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let time_ns =
        match Analyze.OLS.estimates ols_result with
        | Some (est :: _) -> est
        | _ -> nan
      in
      rows := (name, time_ns) :: !rows)
    results;
  List.iter
    (fun (name, ns) ->
      let human =
        if Float.is_nan ns then "n/a"
        else if ns >= 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
        else if ns >= 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
        else if ns >= 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
        else Printf.sprintf "%.0f ns" ns
      in
      Output.Table.add_row table [ name; human ])
    (List.sort compare !rows);
  Output.Table.print table

let () =
  let options = parse_args () in
  Printf.printf
    "fixedlen benchmark harness — %d traces per configuration%s\n"
    options.traces
    (match options.t_step with
    | Some s -> Printf.sprintf ", grid step %g" s
    | None -> " (paper-scale grid)");
  if not options.skip_figures then begin
    Parallel.Pool.with_pool (fun pool -> run_figures options pool);
    run_exact options
  end;
  if not options.skip_micro then run_micro ();
  (match options.dp_json with
  | None -> ()
  | Some path ->
      let cells_per_sec = run_dp_json path in
      Option.iter
        (fun baseline -> check_dp_baseline ~path:baseline ~cells_per_sec)
        options.dp_baseline);
  (match options.serve_json with
  | None -> ()
  | Some path ->
      let modes = run_serve_json path in
      Option.iter
        (fun baseline -> check_serve_baseline ~path:baseline ~modes)
        options.serve_baseline);
  match options.eval_json with
  | None -> ()
  | Some path ->
      let points_per_sec = run_eval_json path in
      Option.iter
        (fun baseline -> check_baseline ~path:baseline ~points_per_sec)
        options.baseline
