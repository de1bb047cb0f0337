(* End-to-end tests for the experiments library: spec registry, a small
   sweep through the runner, report rendering, CSV export and the
   qualitative checks. *)

module Spec = Experiments.Spec
module Figures = Experiments.Figures
module Runner = Experiments.Runner
module Report = Experiments.Report

let tiny_spec () =
  match Figures.find "fig3" with
  | None -> Alcotest.fail "fig3 missing"
  | Some spec ->
      {
        (Figures.scale ~n_traces:60 ~t_step:200.0 ~t_max:1200.0 spec) with
        Spec.cs = [ 80.0 ];
      }

let run_tiny =
  (* One shared run for all the report tests (the sweep is the slow part). *)
  lazy (Runner.run (tiny_spec ()))

(* registry *)

let test_registry_complete () =
  (* All eleven paper figures plus the three extensions. *)
  List.iter
    (fun id ->
      if Figures.find id = None then Alcotest.failf "missing figure %s" id)
    [
      "fig2"; "fig3"; "fig4"; "fig5"; "fig6"; "fig7"; "fig8"; "fig9"; "fig10";
      "fig11"; "fig12"; "ext-weibull"; "ext-lognormal"; "ext-stochastic-ckpt";
    ];
  Alcotest.(check bool) "unknown id" true (Figures.find "fig99" = None)

let test_registry_parameters_match_paper () =
  let get id = Option.get (Figures.find id) in
  let fig2 = get "fig2" in
  Alcotest.(check (float 0.0)) "fig2 lambda" 0.001 fig2.Spec.lambda;
  Alcotest.(check (float 0.0)) "fig2 d" 0.0 fig2.Spec.d;
  Alcotest.(check int) "fig2 five costs" 5 (List.length fig2.Spec.cs);
  Alcotest.(check int) "fig2 traces" 1000 fig2.Spec.n_traces;
  let fig9 = get "fig9" in
  Alcotest.(check (float 0.0)) "fig9 lambda" 0.01 fig9.Spec.lambda;
  Alcotest.(check (float 0.0)) "fig9 d" 5.0 fig9.Spec.d;
  let fig5 = get "fig5" in
  Alcotest.(check (float 0.0)) "fig5 short horizon" 100.0 fig5.Spec.t_max;
  Alcotest.(check int) "fig5 has 5 quanta + 3 references" 8
    (List.length fig5.Spec.strategies)

let test_strategy_names () =
  Alcotest.(check string) "canonical DP name" "DynamicProgramming"
    (Spec.strategy_name (Spec.Dynamic_programming { quantum = 1.0 }));
  Alcotest.(check string) "quantum variant" "DP(u=0.5)"
    (Spec.strategy_name (Spec.Dynamic_programming { quantum = 0.5 }));
  Alcotest.(check string) "young daly" "YoungDaly" (Spec.strategy_name Spec.Young_daly)

let test_t_grid () =
  let spec = Figures.scale ~t_step:50.0 ~t_max:300.0 (Option.get (Figures.find "fig2")) in
  let grid = Spec.t_grid spec ~c:100.0 in
  Alcotest.(check (array (float 1e-9))) "grid starts past c"
    [| 150.0; 200.0; 250.0; 300.0 |] grid

let test_scale_validation () =
  let spec = Option.get (Figures.find "fig2") in
  (match Figures.scale ~n_traces:0 spec with
  | _ -> Alcotest.fail "n_traces 0 accepted"
  | exception Invalid_argument _ -> ());
  (match Figures.scale ~t_step:(-1.0) spec with
  | _ -> Alcotest.fail "negative step accepted"
  | exception Invalid_argument _ -> ());
  (* A non-finite step or bound would make the T grid endless. *)
  List.iter
    (fun (name, t_step, t_max) ->
      match Figures.scale ?t_step ?t_max spec with
      | _ -> Alcotest.failf "%s accepted" name
      | exception Invalid_argument _ -> ())
    [
      ("nan step", Some nan, None);
      ("infinite step", Some infinity, None);
      ("nan bound", None, Some nan);
      ("infinite bound", None, Some infinity);
    ]

let test_trace_dist_calibration () =
  let spec = Option.get (Figures.find "ext-weibull") in
  Alcotest.(check (float 1e-6)) "weibull MTBF = 1/lambda" 1000.0
    (Fault.Trace.dist_mean (Spec.trace_dist spec));
  let base = Option.get (Figures.find "fig2") in
  Alcotest.(check (float 1e-9)) "exp MTBF" 1000.0
    (Fault.Trace.dist_mean (Spec.trace_dist base))

(* runner *)

let test_run_produces_all_curves () =
  let result = Lazy.force run_tiny in
  Alcotest.(check int) "4 strategies x 1 cost" 4
    (List.length result.Runner.curves);
  List.iter
    (fun curve ->
      Alcotest.(check int)
        (curve.Runner.name ^ " grid points")
        5
        (Array.length curve.Runner.points))
    result.Runner.curves

let test_run_points_in_unit_interval () =
  let result = Lazy.force run_tiny in
  List.iter
    (fun curve ->
      Array.iter
        (fun p ->
          if p.Runner.mean < 0.0 || p.Runner.mean > 1.0 then
            Alcotest.failf "%s: proportion %g outside [0,1]" curve.Runner.name
              p.Runner.mean)
        curve.Runner.points)
    result.Runner.curves

let test_run_is_deterministic () =
  let r1 = Lazy.force run_tiny in
  let r2 = Runner.run (tiny_spec ()) in
  List.iter2
    (fun (c1 : Runner.curve) (c2 : Runner.curve) ->
      Array.iteri
        (fun i p ->
          Alcotest.(check (float 1e-12))
            (Printf.sprintf "%s point %d" c1.Runner.name i)
            p.Runner.mean c2.Runner.points.(i).Runner.mean)
        c1.Runner.points)
    r1.Runner.curves r2.Runner.curves

let test_parallel_matches_own_pool () =
  (* The runner through an explicit pool must produce identical numbers. *)
  let r1 = Lazy.force run_tiny in
  let r2 =
    Parallel.Pool.with_pool ~domains:2 (fun pool ->
        Runner.run ~pool (tiny_spec ()))
  in
  List.iter2
    (fun (c1 : Runner.curve) (c2 : Runner.curve) ->
      Array.iteri
        (fun i p ->
          Alcotest.(check (float 1e-12))
            (Printf.sprintf "%s point %d" c1.Runner.name i)
            p.Runner.mean c2.Runner.points.(i).Runner.mean)
        c1.Runner.points)
    r1.Runner.curves r2.Runner.curves

let test_curve_for () =
  let result = Lazy.force run_tiny in
  Alcotest.(check bool) "finds YD" true
    (Runner.curve_for result ~c:80.0 ~strategy:Spec.Young_daly <> None);
  Alcotest.(check bool) "missing cost" true
    (Runner.curve_for result ~c:42.0 ~strategy:Spec.Young_daly = None)

(* report *)

let test_csv_export () =
  let result = Lazy.force run_tiny in
  let path = Filename.temp_file "fixedlen_fig" ".csv" in
  Report.to_csv result ~path;
  let ic = open_in path in
  let header = input_line ic in
  let count = ref 0 in
  (try
     while true do
       ignore (input_line ic);
       incr count
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove path;
  Alcotest.(check string) "header"
    "figure,c,strategy,t,mean_proportion,ci95,mean_failures,mean_checkpoints"
    header;
  Alcotest.(check int) "one row per point" (4 * 5) !count

let test_plots_render () =
  let result = Lazy.force run_tiny in
  let s = Report.plots result in
  Alcotest.(check bool) "mentions the figure" true
    (String.length s > 200 && String.contains s '*')

let test_summary_table () =
  let result = Lazy.force run_tiny in
  let rendered = Output.Table.render (Report.summary_table result) in
  List.iter
    (fun name ->
      if
        not
          (String.split_on_char '\n' rendered
          |> List.exists (fun line ->
                 String.length line >= String.length name
                 && String.trim line <> ""
                 &&
                 let rec contains i =
                   i + String.length name <= String.length line
                   && (String.sub line i (String.length name) = name
                      || contains (i + 1))
                 in
                 contains 0))
      then Alcotest.failf "summary misses %s" name)
    [ "YoungDaly"; "FirstOrder"; "NumericalOptimum"; "DynamicProgramming" ]

let test_qualitative_checks_present () =
  let result = Lazy.force run_tiny in
  let checks = Report.qualitative_checks result in
  Alcotest.(check bool) "has checks" true (List.length checks >= 3);
  (* On fig3's parameters the paper's ordering claims must hold even on a
     small sample. *)
  List.iter
    (fun check ->
      if not check.Report.passed then
        Alcotest.failf "check failed: %s (%s)" check.Report.label
          check.Report.detail)
    checks

let () =
  Alcotest.run "experiments"
    [
      ( "registry",
        [
          Alcotest.test_case "all figures present" `Quick test_registry_complete;
          Alcotest.test_case "parameters match the paper" `Quick
            test_registry_parameters_match_paper;
          Alcotest.test_case "strategy names" `Quick test_strategy_names;
          Alcotest.test_case "reservation grid" `Quick test_t_grid;
          Alcotest.test_case "scale validation" `Quick test_scale_validation;
          Alcotest.test_case "trace calibration" `Quick test_trace_dist_calibration;
        ] );
      ( "runner",
        [
          Alcotest.test_case "all curves" `Slow test_run_produces_all_curves;
          Alcotest.test_case "proportions in [0,1]" `Slow
            test_run_points_in_unit_interval;
          Alcotest.test_case "deterministic" `Slow test_run_is_deterministic;
          Alcotest.test_case "pool-invariant" `Slow test_parallel_matches_own_pool;
          Alcotest.test_case "curve lookup" `Slow test_curve_for;
        ] );
      ( "report",
        [
          Alcotest.test_case "csv export" `Slow test_csv_export;
          Alcotest.test_case "plots render" `Slow test_plots_render;
          Alcotest.test_case "summary table" `Slow test_summary_table;
          Alcotest.test_case "qualitative checks" `Slow
            test_qualitative_checks_present;
        ] );
    ]
