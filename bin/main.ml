(* fixedlen — command-line interface to the fixed-length-reservation
   checkpointing library: figure regeneration, threshold tables, DP
   inspection, one-off simulations and the Section 4 case studies. *)

open Cmdliner

(* Shared parameter options *)

(* Reservation lengths, grid bounds and the DP quantum must be positive
   and finite: a NaN or infinite length would grow a plan, a grid or a
   threshold table without end, or size a DP table to nothing. *)
let length =
  let parse s =
    match float_of_string_opt s with
    | Some x when Float.is_finite x && x > 0.0 -> Ok x
    | _ -> Error (Printf.sprintf "expected a positive finite length, got %S" s)
  in
  Arg.conv' (parse, Arg.conv_printer Arg.float)

let lambda_t =
  let doc = "Failure rate λ (exponential IATs; MTBF = 1/λ)." in
  Arg.(value & opt float 0.001 & info [ "lambda" ] ~docv:"RATE" ~doc)

let c_t =
  let doc = "Checkpoint duration C." in
  Arg.(value & opt float 20.0 & info [ "c"; "checkpoint" ] ~docv:"C" ~doc)

let r_t =
  let doc = "Recovery duration R (defaults to C, the paper's convention)." in
  Arg.(value & opt (some float) None & info [ "r"; "recovery" ] ~docv:"R" ~doc)

let d_t =
  let doc = "Downtime D after a failure." in
  Arg.(value & opt float 0.0 & info [ "d"; "downtime" ] ~docv:"D" ~doc)

let params_t =
  let make lambda c r d =
    Fault.Params.make ~lambda ~c ~r:(Option.value r ~default:c) ~d
  in
  Term.(const make $ lambda_t $ c_t $ r_t $ d_t)

let quantum_t =
  let doc = "Time quantum u of the dynamic program." in
  Arg.(value & opt length 1.0 & info [ "quantum"; "u" ] ~docv:"U" ~doc)

let seed_t =
  let doc = "Random seed for trace generation." in
  Arg.(value & opt int64 42L & info [ "seed" ] ~docv:"SEED" ~doc)

let traces_t default =
  let doc = "Number of random failure traces per configuration." in
  Arg.(value & opt int default & info [ "traces" ] ~docv:"N" ~doc)

let domains_t =
  let doc = "Worker domains for parallel sweeps (default: cores, max 8)." in
  Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"N" ~doc)

(* figure / campaign *)

let t_step_t =
  let doc = "Reservation-length grid step override." in
  Arg.(value & opt (some length) None & info [ "t-step" ] ~docv:"STEP" ~doc)

let t_max_t =
  let doc = "Largest reservation length override." in
  Arg.(value & opt (some length) None & info [ "t-max" ] ~docv:"TMAX" ~doc)

let csv_t =
  let doc = "Write the sweep data to $(docv)." in
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc)

let no_plot_t =
  let doc = "Skip the ASCII plots." in
  Arg.(value & flag & info [ "no-plot" ] ~doc)

let quiet_t =
  let doc = "Suppress progress messages." in
  Arg.(value & flag & info [ "quiet" ] ~doc)

(* Resilience options (see lib/robust): journaled checkpoint/resume of
   the campaign itself, bounded retries, and chaos drills. *)

(* Expected operational failures (a strict-resume mismatch, a sweep that
   exhausted its retry budget) are user errors, not crashes: report them
   on stderr instead of letting cmdliner print a backtrace. *)
let or_fail f =
  try f () with
  | (Failure msg | Invalid_argument msg | Sys_error msg) ->
      Printf.eprintf "fixedlen: %s\n" msg;
      exit 1
  | Unix.Unix_error (e, fn, arg) ->
      Printf.eprintf "fixedlen: %s%s: %s\n" fn
        (if arg = "" then "" else " " ^ arg)
        (Unix.error_message e);
      exit 1
  | (Experiments.Runner.Sweep_failure _ | Parallel.Proc_pool.Fork_refused) as e
    ->
      Printf.eprintf "fixedlen: %s\n" (Printexc.to_string e);
      exit 1

(* Strategy selection goes through the registry
   (lib/experiments/strategy): one list of entries owns the CLI
   spellings, display names and compilation of every strategy. *)

let strategies_opt_t =
  let doc =
    "Comma-separated strategy list (see $(b,fixedlen strategies) for \
     the known spellings), e.g. $(b,young-daly,dp:0.5,no-checkpoint)."
  in
  Arg.(value & opt (some string) None & info [ "strategies" ] ~docv:"LIST" ~doc)

let strategies_of = function
  | None -> None
  | Some text -> (
      match Experiments.Strategy.of_string_list text with
      | Ok strategies -> Some strategies
      | Error msg ->
          Printf.eprintf "fixedlen: %s\n" msg;
          exit 2)

(* Compile a strategy list for a one-shot command: build the required
   tables once (shared across the list), then compile in order. *)
let compile_strategies ~params ~horizon ~dist strategies =
  or_fail (fun () ->
      let cache = Experiments.Strategy.Cache.create () in
      Experiments.Strategy.ensure cache ~params ~horizon ~dist strategies;
      List.map
        (Experiments.Strategy.compile_exn cache ~params ~horizon ~dist)
        strategies)

(* Malleable-platform options: draw failures from a node-level model
   where each failure can permanently take its node down (re-scaling the
   failure rate) and spares can rejoin. See Fault.Trace.node_model. *)

let platform_events_t =
  let doc =
    "Malleability drill: draw failures from a $(docv)-node platform \
     whose nodes can be permanently lost (see $(b,--loss-rate)) and \
     replaced from a spare pool (see $(b,--spares)). Each loss or \
     rejoin re-scales the failure rate; adaptive strategies \
     ($(b,adaptive-dp), $(b,adaptive-young-daly)) re-plan online at \
     every such event."
  in
  Arg.(value & opt (some int) None
       & info [ "platform-events" ] ~docv:"NODES" ~doc)

let spares_t =
  let doc =
    "Spare nodes available to replace lost ones (with \
     $(b,--platform-events)); a spare rejoins after a fixed \
     5-time-unit provisioning delay on top of the failure's downtime."
  in
  Arg.(value & opt int 0 & info [ "spares" ] ~docv:"K" ~doc)

let loss_rate_t =
  let doc =
    "Probability that a failure permanently takes its node down (with \
     $(b,--platform-events)); 0 <= $(docv) <= 1."
  in
  Arg.(value & opt float 0.25 & info [ "loss-rate" ] ~docv:"P" ~doc)

(* Fixed 5-time-unit provisioning delay for rejoining spares (matching
   the ext-replan figure): one shared convention across figure, campaign
   and simulate rather than a fourth flag, and independent of D so
   campaigns mixing downtimes stay comparable. *)
let platform_model_of nodes spares loss_rate =
  Option.map
    (fun nodes ->
      {
        Fault.Trace.nodes;
        spares;
        loss_prob = loss_rate;
        rejoin_delay = 5.0;
      })
    nodes

(* Fault-prediction options: derive a predicted-event stream per trace
   (precision/recall/window, common random numbers) and let strategies
   with an on_prediction hook checkpoint proactively. *)

let predictor_t =
  let doc =
    "Prediction drill: derive a predicted-event stream for every trace \
     from a fault predictor with precision, recall and window width \
     $(docv) (e.g. $(b,0.8,0.7,30)). Strategies with a prediction hook \
     ($(b,predicted-young-daly), $(b,proactive-window)) may then \
     checkpoint proactively on a fired prediction; every other \
     strategy ignores predictions at zero cost."
  in
  Arg.(value & opt (some string) None
       & info [ "predictor" ] ~docv:"P,R,W" ~doc)

let predictor_of = function
  | None -> None
  | Some text -> (
      match List.map String.trim (String.split_on_char ',' text) with
      | [ ps; rs; ws ] -> (
          match
            ( float_of_string_opt ps,
              float_of_string_opt rs,
              float_of_string_opt ws )
          with
          | Some pp, Some r, Some w ->
              let pr = { Fault.Predictor.p = pp; r; w } in
              or_fail (fun () -> Fault.Predictor.validate pr);
              Some pr
          | _ ->
              Printf.eprintf
                "fixedlen: --predictor expects three numbers P,R,W, got %S\n"
                text;
              exit 2)
      | _ ->
          Printf.eprintf
            "fixedlen: --predictor expects P,R,W (precision, recall, \
             window), got %S\n"
            text;
          exit 2)

let retry_t =
  let doc =
    "Attempts per grid point (including the first). Transient task \
     failures are retried with deterministic jittered exponential \
     backoff; 1 disables retries."
  in
  Arg.(value & opt int 1 & info [ "retry" ] ~docv:"N" ~doc)

let retry_of attempts =
  if attempts < 1 then (
    Printf.eprintf "--retry must be >= 1\n";
    exit 2);
  if attempts = 1 then Robust.Retry.no_retry
  else Robust.Retry.make ~attempts ()

(* --chaos-fs injects I/O errors into journal opens and whole-file
   publishes; --retry covers those the same way it covers grid points. *)
let retry_write retry ~key f =
  match Robust.Retry.run retry ~key (fun ~attempt:_ -> f ()) with
  | Ok v -> v
  | Error e -> raise e

let chaos_rate_t =
  let doc =
    "Chaos drill: deterministically inject synthetic failures into this \
     fraction of grid-point attempts (0 <= $(docv) <= 1). Combine with \
     $(b,--retry) to verify that the curves survive unchanged."
  in
  Arg.(value & opt (some float) None & info [ "chaos" ] ~docv:"RATE" ~doc)

let chaos_hang_t =
  let doc =
    "Chaos drill: deterministically hang this fraction of grid-point \
     attempts forever (0 <= $(docv) <= 1). Requires $(b,--task-timeout): \
     only the process-isolated watchdog can kill and re-dispatch a hung \
     task."
  in
  Arg.(value & opt (some float) None & info [ "chaos-hang" ] ~docv:"RATE" ~doc)

let chaos_seed_t =
  let doc = "Seed of the chaos injection stream." in
  Arg.(value & opt int64 1L & info [ "chaos-seed" ] ~docv:"SEED" ~doc)

let chaos_of rate hang_rate seed =
  or_fail (fun () ->
      match (rate, hang_rate) with
      | None, None -> None
      | _ ->
          Some
            (Robust.Chaos.create
               ?failure_rate:rate ?hang_rate ~seed ()))

let chaos_fs_t =
  let doc =
    "Filesystem chaos drill: deterministically inject short writes and \
     I/O errors ($(b,EIO)/$(b,ENOSPC)) into this fraction of artifact \
     writes — journal appends, CSV exports, the Markdown report \
     (0 <= $(docv) <= 1). Combine with $(b,--retry) and \
     $(b,--journal) to verify the artifacts survive unchanged."
  in
  Arg.(value & opt (some float) None & info [ "chaos-fs" ] ~docv:"RATE" ~doc)

let chaos_crash_at_t =
  let doc =
    "Filesystem chaos drill: SIGKILL the process mid-write at write \
     point $(docv), given as POINT:N (e.g. $(b,journal:5) dies while \
     appending the 6th journal record, leaving a torn tail on disk). \
     Repeatable. Relaunch with $(b,--resume) to verify recovery."
  in
  Arg.(value & opt_all string []
       & info [ "chaos-crash-at" ] ~docv:"POINT:N" ~doc)

let chaos_fs_of rate crash_specs seed =
  let crash_at =
    List.map
      (fun spec ->
        match Robust.Chaos_fs.parse_crash_at spec with
        | Some pt -> pt
        | None ->
            Printf.eprintf
              "fixedlen: --chaos-crash-at expects POINT:N (e.g. journal:5), \
               got %S\n"
              spec;
            exit 2)
      crash_specs
  in
  if rate = None && crash_at = [] then None
  else
    or_fail (fun () ->
        Some
          (Robust.Chaos_fs.create ?short_write_rate:rate ?error_rate:rate
             ~crash_at ~seed ()))

(* Deadline-aware supervised execution: a wall-clock reservation budget
   for the run itself, and process isolation so hung or crashing grid
   points can be killed and re-dispatched instead of taking the process
   down. Exit code 3 distinguishes a graceful partial run (deadline hit,
   completed points journaled) from success (0) and failure (1). *)

let exit_partial = 3

let deadline_t =
  let doc =
    "Wall-clock budget in seconds for the whole run. When it expires, \
     in-flight grid points drain, completed points are fsync'd to the \
     journal, whatever curves are complete are reported, and the exit \
     code is 3 (partial) instead of crashing. Combine with \
     $(b,--journal)/$(b,--resume) to finish the rest later."
  in
  Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"SECONDS" ~doc)

let task_timeout_t =
  let doc =
    "Watchdog timeout in seconds for a single grid point. Implies \
     $(b,--isolate); a task that exceeds it is SIGKILLed and \
     re-dispatched up to the $(b,--retry) budget."
  in
  Arg.(value & opt (some float) None
       & info [ "task-timeout" ] ~docv:"SECONDS" ~doc)

let isolate_t =
  let doc =
    "Run each grid point in a supervised forked worker process instead \
     of an in-process domain: a crashing or hanging task then costs one \
     point (retried), not the whole run."
  in
  Arg.(value & flag & info [ "isolate" ] ~doc)

(* Validates the supervision flags and returns the effective isolate
   setting. Usage errors exit 2, like cmdliner's own. *)
let supervision_of ~isolate ~task_timeout ~chaos_hang ~deadline =
  (match task_timeout with
  | Some s when s <= 0.0 ->
      Printf.eprintf "fixedlen: --task-timeout must be > 0\n";
      exit 2
  | _ -> ());
  (match deadline with
  | Some s when s < 0.0 ->
      Printf.eprintf "fixedlen: --deadline must be >= 0\n";
      exit 2
  | _ -> ());
  if chaos_hang <> None && task_timeout = None then begin
    Printf.eprintf
      "fixedlen: --chaos-hang requires --task-timeout: a hung task can \
       only be recovered by the process-isolation watchdog\n";
    exit 2
  end;
  isolate || task_timeout <> None

let report_result ?chaos_fs ~retry ~csv ~no_plot result =
  (match csv with
  | Some path ->
      or_fail (fun () ->
          retry_write retry ~key:(Hashtbl.hash ("csv", path)) (fun () ->
              Experiments.Report.to_csv ?chaos_fs result ~path));
      Printf.printf "wrote %s\n" path
  | None -> ());
  if not no_plot then print_string (Experiments.Report.plots result);
  Output.Table.print (Experiments.Report.summary_table result);
  print_endline "qualitative checks:";
  print_endline
    (Experiments.Report.render_checks
       (Experiments.Report.qualitative_checks result))

let figure_cmd =
  let id_t =
    let doc = "Figure identifier (see $(b,fixedlen list))." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FIGURE" ~doc)
  in
  let journal_t =
    let doc =
      "Journal completed grid points to $(docv) (append-only, \
       checksummed). An existing journal produced by the same \
       spec/seed/scale is resumed; anything else is reset with a warning."
    in
    Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"FILE" ~doc)
  in
  let resume_t =
    let doc =
      "Resume from journal $(docv) and keep journaling to it. Unlike \
       $(b,--journal), a file that does not match this figure's \
       spec/seed/scale is an error instead of being reset."
    in
    Arg.(value & opt (some string) None & info [ "resume" ] ~docv:"FILE" ~doc)
  in
  let run id n_traces t_step t_max strategies platform_events spares loss_rate
      predictor csv no_plot domains quiet journal resume retry chaos_rate
      chaos_hang chaos_seed chaos_fs_rate chaos_crash_at deadline task_timeout
      isolate =
    match Experiments.Figures.find id with
    | None ->
        Printf.eprintf "unknown figure %s; known: %s\n" id
          (String.concat ", " Experiments.Figures.ids);
        exit 2
    | Some spec ->
        let isolate =
          supervision_of ~isolate ~task_timeout ~chaos_hang ~deadline
        in
        let spec = Experiments.Figures.scale ?n_traces ?t_step ?t_max spec in
        (* Override before the journal opens: the fingerprint must match
           the spec actually swept. *)
        let spec =
          match strategies_of strategies with
          | None -> spec
          | Some strategies -> { spec with Experiments.Spec.strategies }
        in
        let spec =
          match platform_model_of platform_events spares loss_rate with
          | None -> spec
          | Some _ as platform -> { spec with Experiments.Spec.platform }
        in
        let spec =
          match predictor_of predictor with
          | None -> spec
          | Some _ as predictor -> { spec with Experiments.Spec.predictor }
        in
        let progress = if quiet then fun _ -> () else prerr_endline in
        let retry = retry_of retry in
        let chaos = chaos_of chaos_rate chaos_hang chaos_seed in
        let chaos_fs = chaos_fs_of chaos_fs_rate chaos_crash_at chaos_seed in
        let deadline =
          match deadline with
          | None -> Robust.Deadline.unlimited
          | Some budget -> Robust.Deadline.start ~budget ()
        in
        let journal =
          match (resume, journal) with
          | Some path, _ -> Some (path, true)
          | None, Some path -> Some (path, false)
          | None, None -> None
        in
        let result =
          or_fail (fun () ->
              let cache = Experiments.Strategy.Cache.create () in
              Parallel.Pool.with_pool ?domains (fun pool ->
                  let backend =
                    if isolate then
                      Experiments.Runner.Processes
                        (Parallel.Proc_pool.create
                           ~workers:(Parallel.Pool.domains pool)
                           ?task_timeout
                           ~attempts:retry.Robust.Retry.attempts ())
                    else Experiments.Runner.Domains
                  in
                  match journal with
                  | None ->
                      Experiments.Runner.run ~pool ~backend ~deadline ~progress
                        ~retry ?chaos ~cache spec
                  | Some (path, strict) ->
                      let j =
                        retry_write retry ~key:(Hashtbl.hash ("journal", path))
                          (fun () ->
                            Robust.Journal.open_ ?fs:chaos_fs ~strict ~path
                              ~key:(Experiments.Spec.fingerprint spec) ())
                      in
                      List.iter progress (Robust.Journal.warnings j);
                      Fun.protect
                        ~finally:(fun () -> Robust.Journal.close j)
                        (fun () ->
                          Experiments.Runner.run ~pool ~backend ~deadline
                            ~progress ~journal:j ~retry ?chaos ~cache spec)))
        in
        report_result ?chaos_fs ~retry ~csv ~no_plot result;
        if result.Experiments.Runner.partial then begin
          Printf.eprintf
            "fixedlen: partial result — %d grid point(s) missed the deadline \
             (completed points journaled; rerun with --resume to finish)\n"
            result.Experiments.Runner.missed;
          exit exit_partial
        end
  in
  let n_traces_t =
    Arg.(value & opt (some int) None
         & info [ "traces" ] ~docv:"N" ~doc:"Traces per configuration.")
  in
  Cmd.v
    (Cmd.info "figure" ~doc:"Regenerate one figure of the paper.")
    Term.(
      const run $ id_t $ n_traces_t $ t_step_t $ t_max_t $ strategies_opt_t
      $ platform_events_t $ spares_t $ loss_rate_t $ predictor_t
      $ csv_t $ no_plot_t $ domains_t $ quiet_t $ journal_t
      $ resume_t $ retry_t $ chaos_rate_t $ chaos_hang_t $ chaos_seed_t
      $ chaos_fs_t $ chaos_crash_at_t $ deadline_t $ task_timeout_t
      $ isolate_t)

let campaign_cmd =
  let out_t =
    let doc = "Directory for the CSV outputs." in
    Arg.(value & opt string "results" & info [ "out" ] ~docv:"DIR" ~doc)
  in
  let n_traces_t =
    Arg.(value & opt (some int) None
         & info [ "traces" ] ~docv:"N" ~doc:"Traces per configuration.")
  in
  let report_t =
    let doc = "Also write a Markdown experiment report to $(docv)." in
    Arg.(value & opt (some string) None & info [ "report" ] ~docv:"FILE" ~doc)
  in
  let figures_only_t =
    let doc = "Comma-separated figure subset (default: all)." in
    Arg.(value & opt (some string) None & info [ "figures" ] ~docv:"IDS" ~doc)
  in
  let journal_t =
    let doc =
      "Journal completed grid points to $(docv)/<figure>.journal so an \
       interrupted campaign can pick up where it left off. Existing \
       journals matching the figure's spec/seed/scale are resumed; \
       mismatched ones are reset with a warning."
    in
    Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"DIR" ~doc)
  in
  let resume_t =
    let doc =
      "Resume an interrupted campaign from $(docv)/<figure>.journal, \
       skipping every already-journaled grid point, and keep journaling. \
       Unlike $(b,--journal), a journal that does not match the figure's \
       spec/seed/scale is an error instead of being reset."
    in
    Arg.(value & opt (some string) None & info [ "resume" ] ~docv:"DIR" ~doc)
  in
  let run out n_traces t_step t_max report figures strategies platform_events
      spares loss_rate predictor domains quiet journal resume
      retry chaos_rate chaos_hang chaos_seed chaos_fs_rate chaos_crash_at
      deadline task_timeout isolate =
    let isolate = supervision_of ~isolate ~task_timeout ~chaos_hang ~deadline in
    let chaos_fs = chaos_fs_of chaos_fs_rate chaos_crash_at chaos_seed in
    let journal =
      match (resume, journal) with
      | Some dir, _ -> Experiments.Campaign.Resume dir
      | None, Some dir -> Experiments.Campaign.Journal dir
      | None, None -> Experiments.Campaign.No_journal
    in
    let config =
      {
        Experiments.Campaign.out_dir = out;
        n_traces;
        t_step;
        t_max;
        figure_ids = Option.map (String.split_on_char ',') figures;
        strategies = strategies_of strategies;
        platform = platform_model_of platform_events spares loss_rate;
        predictor = predictor_of predictor;
        journal;
        retry = retry_of retry;
        chaos = chaos_of chaos_rate chaos_hang chaos_seed;
        chaos_fs;
        deadline;
        task_timeout;
        isolate;
      }
    in
    let progress = if quiet then fun _ -> () else prerr_endline in
    let outcome =
      or_fail (fun () ->
          let cache = Experiments.Strategy.Cache.create () in
          Parallel.Pool.with_pool ?domains (fun pool ->
              Experiments.Campaign.run ~pool ~cache ~progress config))
    in
    List.iter
      (fun (spec, result) ->
        Printf.printf "== %s ==\n" spec.Experiments.Spec.id;
        Output.Table.print (Experiments.Report.summary_table result);
        print_endline
          (Experiments.Report.render_checks
             (Experiments.Report.qualitative_checks result)))
      outcome.Experiments.Campaign.results;
    (match report with
    | None -> ()
    | Some path ->
        or_fail (fun () ->
            Experiments.Campaign.write_report ~retry:config.Experiments.Campaign.retry
              ?chaos_fs outcome ~path);
        Printf.printf "wrote %s\n" path);
    if outcome.Experiments.Campaign.partial then begin
      let missed =
        List.fold_left
          (fun acc (_, r) -> acc + r.Experiments.Runner.missed)
          0 outcome.Experiments.Campaign.results
      in
      Printf.eprintf
        "fixedlen: partial campaign — %d grid point(s) missed the deadline%s \
         (completed points journaled; rerun with --resume to finish)\n"
        missed
        (match outcome.Experiments.Campaign.skipped with
        | [] -> ""
        | ids ->
            Printf.sprintf ", figure(s) not started: %s"
              (String.concat ", " ids));
      exit exit_partial
    end
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:"Run the simulation campaign (every figure, or a subset).")
    Term.(
      const run $ out_t $ n_traces_t $ t_step_t $ t_max_t $ report_t
      $ figures_only_t $ strategies_opt_t $ platform_events_t $ spares_t
      $ loss_rate_t $ predictor_t $ domains_t $ quiet_t
      $ journal_t $ resume_t $ retry_t $ chaos_rate_t $ chaos_hang_t
      $ chaos_seed_t $ chaos_fs_t $ chaos_crash_at_t $ deadline_t
      $ task_timeout_t $ isolate_t)

(* exact *)

let exact_cmd =
  let id_t =
    let doc = "Figure identifier (see $(b,fixedlen list))." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FIGURE" ~doc)
  in
  let run id quantum t_step t_max csv no_plot =
    match Experiments.Figures.find id with
    | None ->
        Printf.eprintf "unknown figure %s; known: %s\n" id
          (String.concat ", " Experiments.Figures.ids);
        exit 2
    | Some spec ->
        let spec = Experiments.Figures.scale ?t_step ?t_max spec in
        let curves = Experiments.Exact.figure ~quantum spec in
        (match csv with
        | Some path ->
            Experiments.Exact.to_csv ~curves ~id ~path;
            Printf.printf "wrote %s\n" path
        | None -> ());
        if not no_plot then
          print_string (Experiments.Exact.plots spec curves)
  in
  Cmd.v
    (Cmd.info "exact"
       ~doc:
        "Regenerate a figure without Monte-Carlo noise (exact expectation \
         on the quantised model; exponential failures only).")
    Term.(const run $ id_t $ quantum_t $ t_step_t $ t_max_t $ csv_t $ no_plot_t)

(* series *)

let series_cmd =
  let reservation_t =
    Arg.(value & opt float 300.0
         & info [ "reservation" ] ~docv:"T" ~doc:"Length of each reservation.")
  in
  let target_t =
    Arg.(value & opt float 3000.0
         & info [ "work" ] ~docv:"W" ~doc:"Total work of the campaign.")
  in
  let reps_t =
    Arg.(value & opt int 200
         & info [ "repetitions" ] ~docv:"N" ~doc:"Monte-Carlo repetitions.")
  in
  let run params quantum reservation target reps seed strategies =
    Printf.printf
      "campaign of %g work units in reservations of %g on %s (%d repetitions)\n"
      target reservation (Fault.Params.to_string params) reps;
    let strategies =
      match strategies_of strategies with
      | Some strategies -> strategies
      | None ->
          Experiments.Spec.
            [
              Young_daly; First_order; Numerical_optimum;
              Dynamic_programming { quantum }; Single_final;
            ]
    in
    let policies =
      compile_strategies ~params ~horizon:reservation
        ~dist:(Fault.Trace.Exponential { rate = params.Fault.Params.lambda })
        strategies
    in
    let table =
      Output.Table.create
        ~columns:
          [
            ("strategy", Output.Table.Left);
            ("reservations", Output.Table.Right);
            ("±95%", Output.Table.Right);
            ("billed time", Output.Table.Right);
            ("incomplete", Output.Table.Right);
          ]
    in
    List.iter
      (fun policy ->
        let s =
          Sim.Series.evaluate ~repetitions:reps ~params ~policy ~reservation
            ~target_work:target ~seed ()
        in
        Output.Table.add_row table
          [
            s.Sim.Series.policy;
            Printf.sprintf "%.2f" s.Sim.Series.reservations.Numerics.Stats.mean;
            Printf.sprintf "%.2f"
              s.Sim.Series.reservations.Numerics.Stats.ci95_half_width;
            Printf.sprintf "%.0f" s.Sim.Series.billed_time_mean;
            string_of_int s.Sim.Series.incomplete;
          ])
      policies;
    Output.Table.print table
  in
  Cmd.v
    (Cmd.info "series"
       ~doc:
        "Simulate a long job split into a series of fixed-length \
         reservations and compare the reservations each strategy needs.")
    Term.(
      const run $ params_t $ quantum_t $ reservation_t $ target_t $ reps_t
      $ seed_t $ strategies_opt_t)

(* breakdown *)

let breakdown_cmd =
  let t_t =
    Arg.(value & opt length 500.0
         & info [ "t"; "length" ] ~docv:"T" ~doc:"Reservation length.")
  in
  let run params quantum t seed traces strategies =
    let dist = Fault.Trace.Exponential { rate = params.Fault.Params.lambda } in
    let trace_set = Fault.Trace.batch ~dist ~seed ~n:traces in
    Printf.printf "where does the reservation go? %s, T=%g, %d traces\n"
      (Fault.Params.to_string params) t traces;
    let table =
      Output.Table.create
        ~columns:
          [
            ("strategy", Output.Table.Left);
            ("work %", Output.Table.Right);
            ("ckpt %", Output.Table.Right);
            ("recovery %", Output.Table.Right);
            ("down %", Output.Table.Right);
            ("lost %", Output.Table.Right);
            ("unused %", Output.Table.Right);
          ]
    in
    let strategies =
      match strategies_of strategies with
      | Some strategies -> strategies
      | None ->
          Experiments.Spec.
            [
              Young_daly; First_order; Numerical_optimum;
              Dynamic_programming { quantum };
            ]
    in
    let policies = compile_strategies ~params ~horizon:t ~dist strategies in
    List.iter
      (fun policy ->
        let acc = Array.make 6 0.0 in
        Array.iter
          (fun trace ->
            let o = Sim.Engine.run ~params ~horizon:t ~policy trace in
            let b = o.Sim.Engine.breakdown in
            acc.(0) <- acc.(0) +. b.Sim.Engine.working;
            acc.(1) <- acc.(1) +. b.Sim.Engine.checkpointing;
            acc.(2) <- acc.(2) +. b.Sim.Engine.recovering;
            acc.(3) <- acc.(3) +. b.Sim.Engine.down;
            acc.(4) <- acc.(4) +. b.Sim.Engine.lost;
            acc.(5) <- acc.(5) +. b.Sim.Engine.unused)
          trace_set;
        let total = t *. float_of_int traces in
        Output.Table.add_row table
          (policy.Sim.Policy.name
          :: List.map
               (fun i -> Printf.sprintf "%.1f" ((100.0 *. acc.(i) /. total) +. 0.0))
               [ 0; 1; 2; 3; 4; 5 ])
      )
      policies;
    Output.Table.print table
  in
  Cmd.v
    (Cmd.info "breakdown"
       ~doc:"Wall-clock breakdown of the reservation per strategy.")
    Term.(
      const run $ params_t $ quantum_t $ t_t $ seed_t $ traces_t 1000
      $ strategies_opt_t)

(* renewal *)

let parse_dist ~lambda spec =
  let mtbf = 1.0 /. lambda in
  match String.split_on_char ':' spec with
  | [ "exp" ] -> Fault.Trace.Exponential { rate = lambda }
  | [ "weibull"; shape ] ->
      Fault.Trace.weibull_with_mtbf ~shape:(float_of_string shape) ~mtbf
  | [ "lognormal"; sigma ] ->
      Fault.Trace.lognormal_with_mtbf ~sigma:(float_of_string sigma) ~mtbf
  | _ ->
      Printf.eprintf "unknown distribution %s\n" spec;
      exit 2

let renewal_cmd =
  let t_t =
    Arg.(value & opt length 400.0
         & info [ "t"; "length" ] ~docv:"T" ~doc:"Reservation length.")
  in
  let dist_t =
    let doc =
      "IAT distribution: exp, weibull:SHAPE or lognormal:SIGMA (MTBF = 1/λ)."
    in
    Arg.(value & opt string "weibull:0.7" & info [ "dist" ] ~docv:"DIST" ~doc)
  in
  let run params quantum t dist_spec seed traces strategies =
    let dist = parse_dist ~lambda:params.Fault.Params.lambda dist_spec in
    Printf.printf
      "renewal-aware optimum for %s failures on %s, T=%g (u=%g)\n" dist_spec
      (Fault.Params.to_string params) t quantum;
    let renewal =
      Core.Dp_renewal.build ~params ~dist ~quantum ~horizon:t ()
    in
    Printf.printf "expected work: %.4f (proportion %.4f)\n"
      (Core.Dp_renewal.value renewal ~tleft:t)
      (Core.Dp_renewal.value renewal ~tleft:t /. (t -. params.Fault.Params.c));
    let n = Core.Dp_renewal.horizon_quanta renewal in
    Printf.printf "failure-free checkpoint completions: %s\n"
      (String.concat ", "
         (List.map
            (fun q -> Printf.sprintf "%g" (float_of_int q *. quantum))
            (Core.Dp_renewal.plan_q renewal ~n ~age:0 ~delta:false)));
    (* Compare by simulation on the same traces. The renewal-aware
       policy reuses the table inspected above; the comparators compile
       through the registry. *)
    let trace_set = Fault.Trace.batch ~dist ~seed ~n:traces in
    let comparators =
      match strategies_of strategies with
      | Some strategies -> strategies
      | None ->
          Experiments.Spec.
            [
              Young_daly; First_order; Numerical_optimum;
              Dynamic_programming { quantum };
            ]
    in
    let policies =
      Core.Dp_renewal.policy renewal
      :: compile_strategies ~params ~horizon:t ~dist comparators
    in
    let table =
      Output.Table.create
        ~columns:
          [
            ("strategy", Output.Table.Left);
            ("proportion", Output.Table.Right);
            ("±95%", Output.Table.Right);
          ]
    in
    List.iter
      (fun policy ->
        let r = Sim.Runner.evaluate ~params ~horizon:t ~policy trace_set in
        Output.Table.add_row table
          [
            r.Sim.Runner.policy;
            Printf.sprintf "%.4f" r.Sim.Runner.proportion.Numerics.Stats.mean;
            Printf.sprintf "%.4f"
              r.Sim.Runner.proportion.Numerics.Stats.ci95_half_width;
          ])
      policies;
    Output.Table.print table
  in
  Cmd.v
    (Cmd.info "renewal"
       ~doc:
        "Build the renewal-aware optimum for non-memoryless failures and \
         compare it with the exponential-derived strategies.")
    Term.(
      const run $ params_t $ quantum_t $ t_t $ dist_t $ seed_t $ traces_t 2000
      $ strategies_opt_t)

(* traces *)

let traces_cmd =
  let out_t =
    Arg.(value & opt string "traces.txt"
         & info [ "out" ] ~docv:"FILE" ~doc:"Output file.")
  in
  let n_t =
    Arg.(value & opt int 1000 & info [ "n"; "count" ] ~docv:"N" ~doc:"Number of traces.")
  in
  let horizon_t =
    Arg.(value & opt length 2000.0
         & info [ "horizon" ] ~docv:"T"
             ~doc:"Cover reservations up to this length.")
  in
  let dist_t =
    let doc =
      "IAT distribution: exp, weibull:SHAPE or lognormal:SIGMA (MTBF = 1/λ)."
    in
    Arg.(value & opt string "exp" & info [ "dist" ] ~docv:"DIST" ~doc)
  in
  let check_t =
    Arg.(value & opt (some string) None
         & info [ "check" ] ~docv:"FILE"
             ~doc:"Instead of generating, load $(docv) and summarise it.")
  in
  let run lambda out n horizon dist seed check =
    match check with
    | Some path ->
        (* A corrupt or truncated trace file is an expected operational
           error: one diagnostic line and exit 1, never a backtrace. *)
        let traces =
          match Fault.Trace_io.read ~path with
          | Ok traces -> traces
          | Error e ->
              Printf.eprintf "fixedlen: %s\n" (Fault.Trace_io.error_message e);
              exit 1
        in
        let acc = Numerics.Stats.acc_create () in
        Array.iter
          (fun tr ->
            Array.iter (Numerics.Stats.acc_add acc)
              (Fault.Trace.iats_until tr ~until:infinity))
          traces;
        let s = Numerics.Stats.summarize acc in
        Printf.printf
          "%s: %d traces, %d IATs, empirical MTBF %.2f (min %.3g, max %.3g)\n"
          path (Array.length traces) s.Numerics.Stats.count
          s.Numerics.Stats.mean s.Numerics.Stats.min s.Numerics.Stats.max
    | None ->
        let dist = parse_dist ~lambda dist in
        let traces = Fault.Trace.batch ~dist ~seed ~n in
        or_fail (fun () -> Fault.Trace_io.save ~path:out ~horizon traces);
        Printf.printf "wrote %d traces covering horizon %g to %s\n" n horizon
          out
  in
  Cmd.v
    (Cmd.info "traces"
       ~doc:"Generate (or inspect) a reusable failure-trace file.")
    Term.(
      const run $ lambda_t $ out_t $ n_t $ horizon_t $ dist_t $ seed_t
      $ check_t)

let list_cmd =
  let run () =
    List.iter
      (fun spec ->
        Printf.printf "%-20s %s\n" spec.Experiments.Spec.id
          spec.Experiments.Spec.description)
      Experiments.Figures.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List the known figures.") Term.(const run $ const ())

(* strategies *)

let strategies_cmd =
  let markdown_t =
    let doc =
      "Emit the listing as a Markdown table (the README strategy table \
       is generated from this, so docs and $(b,--strategies) parsing \
       cannot drift)."
    in
    Arg.(value & flag & info [ "markdown" ] ~doc)
  in
  let run markdown =
    if markdown then print_string (Experiments.Strategy.markdown_table ())
    else
      List.iter
        (fun (cli, name, doc) -> Printf.printf "%-22s %-20s %s\n" cli name doc)
        (Experiments.Strategy.listing ())
  in
  Cmd.v
    (Cmd.info "strategies"
       ~doc:
        "List the strategy registry: CLI spellings (as accepted by \
         $(b,--strategies)), display names and descriptions.")
    Term.(const run $ markdown_t)

(* thresholds *)

let thresholds_cmd =
  let up_to_t =
    Arg.(value & opt float 2000.0
         & info [ "up-to" ] ~docv:"T" ~doc:"Largest threshold to compute.")
  in
  let run params up_to =
    let numerical = Core.Threshold.table_numerical ~params ~up_to in
    let table =
      Output.Table.create
        ~columns:
          [
            ("n", Output.Table.Right);
            ("T_n numerical", Output.Table.Right);
            ("T_n first-order", Output.Table.Right);
            ("geometric-mean approx", Output.Table.Right);
          ]
    in
    Array.iteri
      (fun i t ->
        let n = i + 1 in
        Output.Table.add_row table
          [
            string_of_int n;
            Printf.sprintf "%.2f" t;
            (if n = 1 then "0"
             else
               Printf.sprintf "%.2f"
                 (Core.Threshold.threshold_first_order ~params ~n:(n - 1)));
            (if n = 1 then "-"
             else
               Printf.sprintf "%.2f"
                 (Core.Threshold.geometric_mean_approx ~params ~n:(n - 1)));
          ])
      numerical.Core.Threshold.thresholds;
    Printf.printf "thresholds for %s (plan n checkpoints when T_n <= time left < T_n+1)\n"
      (Fault.Params.to_string params);
    Printf.printf "Young/Daly period: %.2f\n" (Core.Model.young_daly_period params);
    Output.Table.print table
  in
  Cmd.v
    (Cmd.info "thresholds"
       ~doc:"Print the threshold table of the Section 5 heuristic.")
    Term.(const run $ params_t $ up_to_t)

(* dp *)

let dp_cmd =
  let t_t =
    Arg.(value & opt length 500.0
         & info [ "t"; "length" ] ~docv:"T" ~doc:"Reservation length.")
  in
  let kmax_t =
    Arg.(value & opt (some int) None
         & info [ "kmax" ] ~docv:"K" ~doc:"Cap on the number of checkpoints.")
  in
  let run params quantum t kmax =
    let dp =
      or_fail (fun () -> Core.Dp.build ?kmax ~params ~quantum ~horizon:t ())
    in
    let n = Core.Dp.horizon_quanta dp in
    let k = Core.Dp.best_k dp ~n ~delta:false in
    Printf.printf "DP for %s, T=%g, u=%g (kmax=%d)\n"
      (Fault.Params.to_string params) t quantum (Core.Dp.kmax dp);
    Printf.printf "expected work: %.4f (upper bound %.4f, proportion %.4f)\n"
      (Core.Dp.expected_work dp ~tleft:t)
      (t -. params.Fault.Params.c)
      (Core.Dp.expected_work dp ~tleft:t /. (t -. params.Fault.Params.c));
    if k = 0 then print_endline "no checkpoint fits: nothing can be saved"
    else begin
      Printf.printf "optimal number of checkpoints: %d\n" k;
      let plan = Core.Dp.plan_q dp ~n ~k ~delta:false in
      Printf.printf "failure-free checkpoint completions: %s\n"
        (String.concat ", "
           (List.map (fun q -> Printf.sprintf "%g" (float_of_int q *. quantum)) plan));
      (* Compare against the heuristics. *)
      let table =
        Output.Table.create
          ~columns:
            [ ("strategy", Output.Table.Left); ("expected work", Output.Table.Right) ]
      in
      List.iter
        (fun (name, policy) ->
          let v =
            Core.Expected.policy_value ~params ~quantum ~horizon:t ~policy
          in
          Output.Table.add_row table [ name; Printf.sprintf "%.4f" v ])
        ([ ("DynamicProgramming", Core.Dp.policy dp) ]
        (* With C = 0 (free checkpoints) the heuristics degenerate —
           the Young/Daly period sqrt(2C/lambda) and every threshold
           T_n collapse to 0 — so the comparison keeps only the DP and
           the single-final bound instead of failing. *)
        @ (if params.Fault.Params.c > 0.0 then
             [
               ("NumericalOptimum",
                Core.Policies.numerical_optimum ~params ~horizon:t);
               ("FirstOrder", Core.Policies.first_order ~params ~horizon:t);
               ("YoungDaly", Core.Policies.young_daly ~params);
             ]
           else [])
        @ [ ("SingleFinal", Core.Policies.single_final ~params) ]);
      Output.Table.print table
    end
  in
  Cmd.v
    (Cmd.info "dp"
       ~doc:"Build the dynamic program and inspect the optimal strategy.")
    Term.(const run $ params_t $ quantum_t $ t_t $ kmax_t)

(* simulate *)

let simulate_cmd =
  let t_t =
    Arg.(value & opt length 500.0
         & info [ "t"; "length" ] ~docv:"T" ~doc:"Reservation length.")
  in
  let run params quantum t seed traces strategies platform_events spares
      loss_rate predictor =
    let dist =
      Fault.Trace.Exponential { rate = params.Fault.Params.lambda }
    in
    let model = platform_model_of platform_events spares loss_rate in
    let predictor = predictor_of predictor in
    (* With a platform model, traces come from the node-level generator
       and each carries its own loss/rejoin schedule, replayed for every
       strategy so they face identical platform histories. *)
    let trace_set, platforms =
      match model with
      | None -> (Fault.Trace.batch ~dist ~seed ~n:traces, None)
      | Some model ->
          let histories =
            or_fail (fun () ->
                Fault.Trace.platform_batch ~model
                  ~rate:params.Fault.Params.lambda ~d:params.Fault.Params.d
                  ~horizon:t ~seed ~n:traces)
          in
          ( Array.map fst histories,
            Some
              (Array.map
                 (fun (_, events) ->
                   { Sim.Engine.initial = model.Fault.Trace.nodes; events })
                 histories) )
    in
    let strategies =
      match strategies_of strategies with
      | Some strategies -> strategies
      | None -> (
          Experiments.Spec.
            [
              Young_daly; First_order; Numerical_optimum;
              Dynamic_programming { quantum }; Single_final;
              Daly_second_order; Lambert_period;
            ]
          @
          (* On a malleable platform, the adaptive variants are the
             point of the exercise: include them by default. *)
          match model with
          | None -> []
          | Some _ ->
              Experiments.Spec.
                [
                  Adaptive Young_daly;
                  Adaptive (Dynamic_programming { quantum });
                ])
    in
    (* Prediction streams ride the runner's common-random-numbers
       convention (salt -1 of the trace seed), so `simulate` and
       `figure` agree on what a given (seed, c) predictor announces. *)
    let predictions =
      Option.map
        (fun pr ->
          or_fail (fun () ->
              Fault.Predictor.batch ~params:pr
                ~rate:params.Fault.Params.lambda ~horizon:t
                ~seed:
                  (Experiments.Runner.seed_for seed ~c:params.Fault.Params.c
                     ~salt:(-1))
                trace_set))
        predictor
    in
    let policies = compile_strategies ~params ~horizon:t ~dist strategies in
    Printf.printf "simulating %s, T=%g, %d traces%s%s\n"
      (Fault.Params.to_string params) t traces
      (match model with
      | None -> ""
      | Some m ->
          Printf.sprintf ", platform %d node(s) (%d spare(s), loss %g)"
            m.Fault.Trace.nodes m.Fault.Trace.spares m.Fault.Trace.loss_prob)
      (match predictor with
      | None -> ""
      | Some pr ->
          Printf.sprintf ", predictor p=%g r=%g w=%g" pr.Fault.Predictor.p
            pr.Fault.Predictor.r pr.Fault.Predictor.w);
    let table =
      Output.Table.create
        ~columns:
          ([
             ("strategy", Output.Table.Left);
             ("proportion", Output.Table.Right);
             ("±95%", Output.Table.Right);
             ("failures", Output.Table.Right);
             ("checkpoints", Output.Table.Right);
           ]
          @
          (* The prediction counters only appear when a predictor is
             active, keeping the default table (and its goldens) as-is. *)
          match predictor with
          | None -> []
          | Some _ ->
              [
                ("proactive", Output.Table.Right);
                ("pred TP", Output.Table.Right);
                ("pred FA", Output.Table.Right);
              ])
    in
    List.iter
      (fun policy ->
        let r =
          Sim.Runner.evaluate ?platforms ?predictions ~params ~horizon:t
            ~policy trace_set
        in
        Output.Table.add_row table
          ([
             r.Sim.Runner.policy;
             Printf.sprintf "%.4f" r.Sim.Runner.proportion.Numerics.Stats.mean;
             Printf.sprintf "%.4f"
               r.Sim.Runner.proportion.Numerics.Stats.ci95_half_width;
             Printf.sprintf "%.2f" r.Sim.Runner.mean_failures;
             Printf.sprintf "%.2f" r.Sim.Runner.mean_checkpoints;
           ]
          @
          match predictor with
          | None -> []
          | Some _ ->
              [
                Printf.sprintf "%.2f" r.Sim.Runner.mean_proactive;
                Printf.sprintf "%.2f" r.Sim.Runner.mean_predictions_true;
                Printf.sprintf "%.2f" r.Sim.Runner.mean_predictions_false;
              ]))
      policies;
    Output.Table.print table
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Evaluate every strategy on one reservation length.")
    Term.(
      const run $ params_t $ quantum_t $ t_t $ seed_t $ traces_t 1000
      $ strategies_opt_t $ platform_events_t $ spares_t $ loss_rate_t
      $ predictor_t)

(* replan — the malleability scenario (lib/experiments/replan) *)

let replan_cmd =
  let t_t =
    Arg.(value & opt length 800.0
         & info [ "t"; "length" ] ~docv:"T" ~doc:"Reservation length.")
  in
  let nodes_t =
    let doc = "Platform size in nodes." in
    Arg.(value & opt int 16 & info [ "nodes"; "platform-events" ] ~docv:"NODES" ~doc)
  in
  let rejoin_t =
    let doc = "Provisioning delay before a spare rejoins." in
    Arg.(value & opt float 5.0 & info [ "rejoin-delay" ] ~docv:"DELAY" ~doc)
  in
  let loss_grid_t =
    let doc =
      "Comma-separated node-loss probabilities to sweep (0 first proves \
       the adaptive variants match their static strategies bit for bit \
       when nothing happens)."
    in
    Arg.(value & opt string "0,0.1,0.25,0.5"
         & info [ "loss-grid" ] ~docv:"P,P,..." ~doc)
  in
  let run params quantum t nodes spares rejoin loss_grid seed traces
      strategies csv no_plot quiet =
    let loss_probs =
      let parts = String.split_on_char ',' loss_grid in
      match
        List.map (fun s -> float_of_string_opt (String.trim s)) parts
      with
      | fs when List.for_all Option.is_some fs ->
          Array.of_list (List.map Option.get fs)
      | _ ->
          Printf.eprintf "fixedlen: bad --loss-grid %S\n" loss_grid;
          exit 2
    in
    let strategies =
      match strategies_of strategies with
      | Some strategies -> strategies
      | None ->
          Experiments.Spec.
            [
              Young_daly;
              Adaptive Young_daly;
              Dynamic_programming { quantum };
              Adaptive (Dynamic_programming { quantum });
            ]
    in
    let progress = if quiet then fun _ -> () else prerr_endline in
    let result =
      or_fail (fun () ->
          Experiments.Replan.run ~progress ~params ~horizon:t ~nodes ~spares
            ~rejoin_delay:rejoin ~loss_probs ~n_traces:traces ~seed strategies)
    in
    (match csv with
    | Some path ->
        or_fail (fun () -> Experiments.Replan.to_csv result ~path);
        Printf.printf "wrote %s\n" path
    | None -> ());
    if not no_plot then print_string (Experiments.Replan.plot result);
    print_endline "qualitative checks:";
    print_endline
      (Experiments.Report.render_checks (Experiments.Replan.checks result));
    (* The drills assert on these: re-planning at a revisited degraded λ
       must be a cache hit, not a rebuild. *)
    let s = result.Experiments.Replan.cache in
    Printf.printf "cache: builds=%d hits=%d evictions=%d tables=%d\n"
      s.Experiments.Strategy.Cache.s_builds s.Experiments.Strategy.Cache.s_hits
      s.Experiments.Strategy.Cache.s_evictions
      s.Experiments.Strategy.Cache.s_resident_tables
  in
  Cmd.v
    (Cmd.info "replan"
       ~doc:
         "Malleability scenario: sweep node-loss probabilities and compare \
          static-λ strategies against online re-planning on identical \
          platform histories.")
    Term.(
      const run $ params_t $ quantum_t $ t_t $ nodes_t $ spares_t $ rejoin_t
      $ loss_grid_t $ seed_t $ traces_t 500 $ strategies_opt_t $ csv_t
      $ no_plot_t $ quiet_t)

(* predict — the fault-prediction scenario (lib/experiments/predict) *)

let predict_cmd =
  let t_t =
    Arg.(value & opt length 800.0
         & info [ "t"; "length" ] ~docv:"T" ~doc:"Reservation length.")
  in
  let grid_t ~name ~default ~doc =
    Arg.(value & opt string default & info [ name ] ~docv:"X,X,..." ~doc)
  in
  let p_grid_t =
    grid_t ~name:"p-grid" ~default:"0,0.8,1"
      ~doc:
        "Comma-separated predictor precisions to sweep (0 proves the \
         exact-float law: no stream, bit-identical to the baseline)."
  in
  let r_grid_t =
    grid_t ~name:"r-grid" ~default:"0,0.8,1"
      ~doc:
        "Comma-separated predictor recalls to sweep (0 collapses \
         predicted-young-daly onto Young/Daly bit for bit)."
  in
  let w_grid_t =
    grid_t ~name:"w-grid" ~default:"30"
      ~doc:
        "Comma-separated prediction windows to sweep (w >= C lets the \
         proactive checkpoint complete before the announced fault)."
  in
  let parse_grid ~flag text =
    let parts = String.split_on_char ',' text in
    match List.map (fun s -> float_of_string_opt (String.trim s)) parts with
    | fs when fs <> [] && List.for_all Option.is_some fs ->
        Array.of_list (List.map Option.get fs)
    | _ ->
        Printf.eprintf "fixedlen: bad --%s %S\n" flag text;
        exit 2
  in
  let run params t p_grid r_grid w_grid seed traces csv no_plot quiet =
    let ps = parse_grid ~flag:"p-grid" p_grid in
    let rs = parse_grid ~flag:"r-grid" r_grid in
    let ws = parse_grid ~flag:"w-grid" w_grid in
    let progress = if quiet then fun _ -> () else prerr_endline in
    let result =
      or_fail (fun () ->
          Experiments.Predict.run ~progress ~params ~horizon:t ~ps ~rs ~ws
            ~n_traces:traces ~seed ())
    in
    (match csv with
    | Some path ->
        or_fail (fun () -> Experiments.Predict.to_csv result ~path);
        Printf.printf "wrote %s\n" path
    | None -> ());
    if not no_plot then print_string (Experiments.Predict.plot result);
    print_endline "qualitative checks:";
    print_endline
      (Experiments.Report.render_checks (Experiments.Predict.checks result));
    (* proactive-window shares one u = 1 DP table across the whole grid:
       builds must stay at 1 no matter how many combos ran. *)
    let s = result.Experiments.Predict.cache in
    Printf.printf "cache: builds=%d hits=%d evictions=%d tables=%d\n"
      s.Experiments.Strategy.Cache.s_builds s.Experiments.Strategy.Cache.s_hits
      s.Experiments.Strategy.Cache.s_evictions
      s.Experiments.Strategy.Cache.s_resident_tables
  in
  Cmd.v
    (Cmd.info "predict"
       ~doc:
         "Fault-prediction scenario: sweep a (precision, recall, window) \
          grid and compare prediction-aware strategies against the \
          unpredicted baseline on identical failure traces.")
    Term.(
      const run $ params_t $ t_t $ p_grid_t $ r_grid_t $ w_grid_t $ seed_t
      $ traces_t 300 $ csv_t $ no_plot_t $ quiet_t)

(* analysis (Section 4 case studies) *)

let analysis_cmd =
  let run () =
    print_endline "== Section 4.2: single checkpoint in a short reservation ==";
    print_endline "setting: T=6, C=R=4, D=0; gain of checkpointing at the end";
    Printf.printf "crossover rate: ln 2 = %.6f\n" Core.Analysis.short_reservation_crossover;
    let table =
      Output.Table.create
        ~columns:
          [
            ("λ", Output.Table.Right);
            ("gain(end vs early)", Output.Table.Right);
            ("better", Output.Table.Left);
          ]
    in
    List.iter
      (fun lambda ->
        let g = Core.Analysis.short_reservation_gain ~lambda in
        Output.Table.add_row table
          [
            Printf.sprintf "%.3f" lambda;
            Printf.sprintf "%+.5f" g;
            (if g >= 0.0 then "checkpoint at the end" else "checkpoint early");
          ])
      [ 0.1; 0.3; 0.5; log 2.0; 0.8; 1.0; 1.5 ];
    Output.Table.print table;
    print_newline ();
    print_endline "== Section 4.3: optimal two-checkpoint split α_opt(T) ==";
    let params = Fault.Params.paper ~lambda:0.001 ~c:20.0 ~d:0.0 in
    let table =
      Output.Table.create
        ~columns:
          [
            ("T", Output.Table.Right);
            ("α_opt", Output.Table.Right);
            ("first ckpt at", Output.Table.Right);
            ("equal split would be", Output.Table.Right);
          ]
    in
    List.iter
      (fun t ->
        let alpha = Core.Analysis.alpha_opt ~params ~t in
        Output.Table.add_row table
          [
            Printf.sprintf "%g" t;
            Printf.sprintf "%.4f" alpha;
            Printf.sprintf "%.1f" (alpha *. t);
            Printf.sprintf "%.1f" (t /. 2.0);
          ])
      [ 100.0; 200.0; 400.0; 800.0; 1600.0; 3200.0 ];
    Output.Table.print table;
    print_endline "(α_opt → 1/2 as λ → 0: equal splitting is only asymptotically optimal)"
  in
  Cmd.v
    (Cmd.info "analysis" ~doc:"Print the Section 4 analytical case studies.")
    Term.(const run $ const ())

(* serve / query — the policy-as-a-service daemon (lib/serve) and its
   client. Exit codes extend the usual 0/1/2 with typed service
   outcomes: 4 = request shed by admission control, 5 = per-request
   budget expired. *)

let exit_overloaded = 4
let exit_timeout = 5

let socket_t =
  let doc =
    "Daemon endpoint: a Unix-domain socket path, or a TCP $(b,HOST:PORT) \
     when it contains a colon."
  in
  Arg.(value & opt string "fixedlen.sock" & info [ "socket" ] ~docv:"PATH" ~doc)

let serve_cmd =
  let workers_t =
    let doc = "Concurrent worker loops (Parallel.Pool domains)." in
    Arg.(value & opt int 2 & info [ "workers" ] ~docv:"N" ~doc)
  in
  let listen_t =
    let doc =
      "Also listen on TCP $(docv) (e.g. $(b,127.0.0.1:7070)), beside the \
       Unix socket and behind the same admission control. Port 0 binds an \
       ephemeral port, reported on the $(b,listening on tcp) line."
    in
    Arg.(value & opt (some string) None
         & info [ "listen" ] ~docv:"HOST:PORT" ~doc)
  in
  let batch_t =
    let doc =
      "Connections a worker multiplexes per pool hop — and therefore the \
       most requests answered in one handler pass, sharing a single \
       table-cache round trip per distinct platform. 1 reproduces the \
       unbatched daemon exactly."
    in
    Arg.(value & opt int 1 & info [ "batch" ] ~docv:"N" ~doc)
  in
  let max_conns_t =
    let doc =
      "Cap on concurrently admitted connections (on top of the queue \
       bound); past it, new connections are shed with $(b,overloaded)."
    in
    Arg.(value & opt (some int) None & info [ "max-conns" ] ~docv:"N" ~doc)
  in
  let idle_timeout_t =
    let doc =
      "Close connections that stay silent for $(docv) seconds, so \
       abandoned TCP peers cannot pin worker slots forever."
    in
    Arg.(value & opt (some float) None
         & info [ "idle-timeout" ] ~docv:"SECONDS" ~doc)
  in
  let sessions_t =
    let doc =
      "LRU bound on the per-client session table ($(b,session-open) pins \
       a platform server-side so session queries carry only deltas)."
    in
    Arg.(value & opt int 1024 & info [ "sessions" ] ~docv:"N" ~doc)
  in
  let queue_t =
    let doc =
      "Admission-queue capacity. A connection arriving while the queue \
       holds $(docv) others is refused with an explicit $(b,overloaded) \
       reply instead of queueing without bound; 0 sheds everything (the \
       overload drill)."
    in
    Arg.(value & opt int 16 & info [ "queue" ] ~docv:"N" ~doc)
  in
  let budget_t =
    let doc =
      "Per-query wall-clock budget in seconds. A query that overruns it \
       is answered $(b,timeout) (the table build still completes and is \
       cached, so a retry hits)."
    in
    Arg.(value & opt (some float) None
         & info [ "request-budget" ] ~docv:"SECONDS" ~doc)
  in
  let slow_t =
    let doc =
      "Sleep this many seconds at the head of every query — the \
       deterministic way to drill $(b,--request-budget) timeouts."
    in
    Arg.(value & opt float 0.0 & info [ "slow" ] ~docv:"SECONDS" ~doc)
  in
  let journal_t =
    let doc =
      "Journal every query request to $(docv) (framed, checksummed). On \
       restart the journal is scanned, a torn tail truncated, and the \
       recovered record count reported — the crash-recovery drill."
    in
    Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"FILE" ~doc)
  in
  let journal_rotate_t =
    let doc =
      "Seal the live request journal into an immutable numbered segment \
       ($(b,FILE.1), $(b,FILE.2), ...) once an append pushes it past \
       $(docv) bytes, so a long-lived daemon's live journal stays \
       bounded. Restart recovery scans segments oldest-first, then the \
       live tail."
    in
    Arg.(value & opt (some int) None
         & info [ "journal-rotate" ] ~docv:"BYTES" ~doc)
  in
  let journal_compact_t =
    let doc =
      "Before opening the request journal, merge its sealed segments \
       into one and drop byte-identical duplicate records (e.g. left by \
       a crash between a compaction's publish and its unlinks). \
       Idempotent; a no-op below two segments."
    in
    Arg.(value & flag & info [ "journal-compact" ] ~doc)
  in
  let cache_tables_t =
    let doc =
      "LRU bound on resident policy tables: one per platform and quantum, \
       holding its k-free and (once a $(b,kleft) cap binds) k-indexed \
       tables."
    in
    Arg.(value & opt (some int) None & info [ "cache-tables" ] ~docv:"N" ~doc)
  in
  let cache_bytes_t =
    let doc = "LRU bound on summed resident table bytes." in
    Arg.(value & opt (some int) None & info [ "cache-bytes" ] ~docv:"B" ~doc)
  in
  let run socket listen workers queue batch max_conns idle_timeout sessions
      budget slow journal journal_rotate journal_compact cache_tables
      cache_bytes chaos_rate chaos_seed chaos_fs_rate chaos_crash_at
      quiet =
    if workers < 1 then begin
      Printf.eprintf "fixedlen: --workers must be >= 1\n";
      exit 2
    end;
    if queue < 0 then begin
      Printf.eprintf "fixedlen: --queue must be >= 0\n";
      exit 2
    end;
    if batch < 1 then begin
      Printf.eprintf "fixedlen: --batch must be >= 1\n";
      exit 2
    end;
    if sessions < 1 then begin
      Printf.eprintf "fixedlen: --sessions must be >= 1\n";
      exit 2
    end;
    (match max_conns with
    | Some m when m < 1 ->
        Printf.eprintf "fixedlen: --max-conns must be >= 1\n";
        exit 2
    | _ -> ());
    (match idle_timeout with
    | Some s when s <= 0.0 ->
        Printf.eprintf "fixedlen: --idle-timeout must be positive\n";
        exit 2
    | _ -> ());
    (match journal_rotate with
    | Some b when b <= 0 ->
        Printf.eprintf "fixedlen: --journal-rotate must be positive\n";
        exit 2
    | _ -> ());
    let chaos = chaos_of chaos_rate None chaos_seed in
    let chaos_fs = chaos_fs_of chaos_fs_rate chaos_crash_at chaos_seed in
    let cfg =
      {
        Serve.Server.socket_path = socket;
        listen;
        workers;
        queue_capacity = queue;
        batch;
        max_conns;
        idle_timeout;
        max_sessions = sessions;
        budget;
        slow;
        journal;
        journal_rotate;
        journal_compact;
        chaos;
        chaos_fs;
        max_tables = cache_tables;
        max_bytes = cache_bytes;
        quiet;
      }
    in
    exit (or_fail (fun () -> Serve.Server.run cfg))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve checkpoint-policy queries over a Unix-domain socket (and \
          optionally TCP with $(b,--listen)) until SIGTERM (drains \
          gracefully; survives SIGKILL via the request journal).")
    Term.(
      const run $ socket_t $ listen_t $ workers_t $ queue_t $ batch_t
      $ max_conns_t $ idle_timeout_t $ sessions_t $ budget_t $ slow_t
      $ journal_t $ journal_rotate_t $ journal_compact_t $ cache_tables_t
      $ cache_bytes_t $ chaos_rate_t $ chaos_seed_t $ chaos_fs_t
      $ chaos_crash_at_t $ quiet_t)

let query_cmd =
  let horizon_t =
    Arg.(value & opt length 500.0
         & info [ "t"; "length" ] ~docv:"T"
             ~doc:"Reservation length (the horizon the DP tables cover).")
  in
  let tleft_t =
    let doc = "Remaining reservation time (defaults to the full length)." in
    Arg.(value & opt (some float) None & info [ "left" ] ~docv:"TIME" ~doc)
  in
  let kleft_t =
    let doc =
      "Checkpoints still available when re-planning (with \
       $(b,--recovering)); unconstrained when omitted."
    in
    (* A count: the binary wire has no spelling for a negative one. *)
    let count =
      let parse s =
        match int_of_string_opt s with
        | Some k when k >= 0 -> Ok k
        | _ -> Error (Printf.sprintf "expected a non-negative count, got %S" s)
      in
      Arg.conv' (parse, Arg.conv_printer Arg.int)
    in
    Arg.(value & opt (some count) None & info [ "kleft" ] ~docv:"K" ~doc)
  in
  let recovering_t =
    let doc = "Plan the post-failure (δ = 1) state: recover first." in
    Arg.(value & flag & info [ "recovering" ] ~doc)
  in
  let ping_t =
    let doc = "Just ping the daemon." in
    Arg.(value & flag & info [ "ping" ] ~doc)
  in
  let stats_t =
    let doc = "Ask for the daemon's cache statistics." in
    Arg.(value & flag & info [ "stats" ] ~doc)
  in
  let session_open_t =
    let doc =
      "Open a server-side session pinning the platform \
       ($(b,--lambda)/$(b,-c)/$(b,-r)/$(b,-d), $(b,--t), $(b,--quantum)); \
       prints the granted $(b,sid=N)."
    in
    Arg.(value & flag & info [ "session-open" ] ~doc)
  in
  let session_t =
    let doc =
      "Query through session $(docv) instead of sending the platform: \
       only $(b,--left)/$(b,--kleft)/$(b,--recovering) travel."
    in
    Arg.(value & opt (some int) None & info [ "session" ] ~docv:"SID" ~doc)
  in
  let session_close_t =
    let doc = "Close session $(docv)." in
    Arg.(value & opt (some int) None
         & info [ "session-close" ] ~docv:"SID" ~doc)
  in
  let binary_t =
    let doc =
      "Negotiate the binary wire encoding for this connection (the \
       daemon still journals canonical text)."
    in
    Arg.(value & flag & info [ "binary" ] ~doc)
  in
  let max_frame_t =
    let doc =
      "Request a per-connection frame bound of $(docv) bytes in the \
       hello (the server clamps asks into its [4 KiB, 64 MiB] band)."
    in
    Arg.(value & opt (some int) None & info [ "max-frame" ] ~docv:"BYTES" ~doc)
  in
  let retry_seed_t =
    let doc =
      "Seed for the retry jitter stream, making shed-retry runs \
       deterministic (also: $(b,FIXEDLEN_SERVE_SEED))."
    in
    Arg.(value & opt (some int64) None
         & info [ "retry-seed" ] ~docv:"SEED" ~doc)
  in
  let count_t =
    let doc = "Send the request $(docv) times over one connection." in
    Arg.(value & opt int 1 & info [ "repeat" ] ~docv:"N" ~doc)
  in
  let retry_base_t =
    let doc = "Base backoff delay between retries, in seconds." in
    Arg.(value & opt float 0.05 & info [ "retry-base" ] ~docv:"SECONDS" ~doc)
  in
  let decorrelated_t =
    let doc =
      "Back off with decorrelated jitter instead of exponential — what a \
       herd of shed clients should use."
    in
    Arg.(value & flag & info [ "retry-decorrelated" ] ~doc)
  in
  let code_of = function
    | Serve.Protocol.Answer _ | Serve.Protocol.Pong
    | Serve.Protocol.Stats_reply _ | Serve.Protocol.Session _ ->
        0
    | Serve.Protocol.Overloaded -> exit_overloaded
    | Serve.Protocol.Timeout -> exit_timeout
    | Serve.Protocol.Failed _ -> 1
  in
  let run socket params quantum horizon tleft kleft recovering ping stats
      session_open session session_close binary max_frame count attempts
      retry_base decorrelated retry_seed =
    if count < 1 then begin
      Printf.eprintf "fixedlen: --repeat must be >= 1\n";
      exit 2
    end;
    (* A server that sheds us closes before reading: that must surface
       as its [overloaded] reply, not kill us with SIGPIPE. *)
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let request =
      if ping then Serve.Protocol.Ping
      else if stats then Serve.Protocol.Stats
      else if session_open then
        Serve.Protocol.Session_open
          {
            Serve.Protocol.plat_params = params;
            plat_horizon = horizon;
            plat_quantum = quantum;
          }
      else
        match (session_close, session) with
        | Some sid, _ -> Serve.Protocol.Session_close sid
        | None, Some sid ->
            Serve.Protocol.Session_query
              {
                Serve.Protocol.sid;
                sq_tleft = Option.value tleft ~default:horizon;
                sq_kleft = kleft;
                sq_recovering = recovering;
              }
        | None, None ->
            Serve.Protocol.Query
              {
                Serve.Protocol.params;
                horizon;
                quantum;
                tleft = Option.value tleft ~default:horizon;
                kleft;
                recovering;
              }
    in
    let retry =
      if attempts <= 1 then Robust.Retry.no_retry
      else
        Robust.Retry.make ~attempts ~base_delay:retry_base ~decorrelated ()
    in
    let finish resp =
      print_endline (Serve.Protocol.render_response resp);
      code_of resp
    in
    let code =
      or_fail (fun () ->
          if count = 1 then
            match
              Serve.Client.query ~retry ?seed:retry_seed ~binary ?max_frame
                ~socket request
            with
            | Ok resp -> finish resp
            | Error msg -> failwith msg
          else begin
            let conn = Serve.Client.connect ~socket in
            Fun.protect
              ~finally:(fun () -> Serve.Client.close conn)
              (fun () ->
                (match Serve.Client.handshake ?max_frame conn ~binary with
                | Ok _ -> ()
                | Error msg -> failwith msg);
                let code = ref 0 in
                for _ = 1 to count do
                  match Serve.Client.request conn request with
                  | Ok resp -> code := finish resp
                  | Error msg -> failwith msg
                done;
                !code)
          end)
    in
    exit code
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:
         "Ask a running daemon for the optimal next checkpoint (exit \
          codes: 0 answered, 4 overloaded, 5 timeout).")
    Term.(
      const run $ socket_t $ params_t $ quantum_t $ horizon_t $ tleft_t
      $ kleft_t $ recovering_t $ ping_t $ stats_t $ session_open_t
      $ session_t $ session_close_t $ binary_t $ max_frame_t $ count_t
      $ retry_t $ retry_base_t $ decorrelated_t $ retry_seed_t)

let main_cmd =
  let doc =
    "checkpointing strategies for a fixed-length execution (Benoit, \
     Perotin, Robert, Vivien — RR-9552 / SC 2024)"
  in
  Cmd.group
    (Cmd.info "fixedlen" ~version:"1.0.0" ~doc)
    [
      figure_cmd; campaign_cmd; list_cmd; strategies_cmd; thresholds_cmd;
      dp_cmd; simulate_cmd; replan_cmd; predict_cmd; analysis_cmd; series_cmd;
      breakdown_cmd; traces_cmd; renewal_cmd; exact_cmd; serve_cmd; query_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
