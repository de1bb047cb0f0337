type journal_mode = No_journal | Journal of string | Resume of string

type config = {
  out_dir : string;
  n_traces : int option;
  t_step : float option;
  t_max : float option;
  figure_ids : string list option;
  strategies : Spec.strategy list option;
  platform : Fault.Trace.node_model option;
  predictor : Fault.Predictor.params option;
  journal : journal_mode;
  retry : Robust.Retry.t;
  chaos : Robust.Chaos.t option;
  chaos_fs : Robust.Chaos_fs.t option;
  deadline : float option;
  task_timeout : float option;
  isolate : bool;
}

let default_config =
  {
    out_dir = "results";
    n_traces = None;
    t_step = None;
    t_max = None;
    figure_ids = None;
    strategies = None;
    platform = None;
    predictor = None;
    journal = No_journal;
    retry = Robust.Retry.no_retry;
    chaos = None;
    chaos_fs = None;
    deadline = None;
    task_timeout = None;
    isolate = false;
  }

type outcome = {
  results : (Spec.t * Runner.result) list;
  partial : bool;
  skipped : string list;
}

let selected_specs config =
  match config.figure_ids with
  | None -> Figures.all
  | Some ids ->
      List.map
        (fun id ->
          match Figures.find id with
          | Some spec -> spec
          | None ->
              invalid_arg
                (Printf.sprintf "Campaign: unknown figure %s (known: %s)" id
                   (String.concat ", " Figures.ids)))
        ids

let ensure_dir dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755
  else if not (Sys.is_directory dir) then
    invalid_arg (Printf.sprintf "Campaign: %s exists and is not a directory" dir)

let journal_path ~dir (spec : Spec.t) =
  Filename.concat dir (spec.Spec.id ^ ".journal")

(* Artifact writes share the grid points' retry budget: under --chaos-fs
   a journal header or a CSV publish can fail with an injected I/O error
   too, and --retry should cover those the same way it covers compute. A
   torn header left by a failed attempt is quarantined and recreated on
   the next one; a failed atomic publish leaves the previous version. *)
let retry_write retry ~key f =
  match Robust.Retry.run retry ~key (fun ~attempt:_ -> f ()) with
  | Ok v -> v
  | Error e -> raise e

let open_journal ~progress config (scaled : Spec.t) =
  match config.journal with
  | No_journal -> None
  | Journal dir | Resume dir ->
      ensure_dir dir;
      let strict = match config.journal with Resume _ -> true | _ -> false in
      let j =
        retry_write config.retry
          ~key:(Hashtbl.hash (scaled.Spec.id, "journal"))
          (fun () ->
            Robust.Journal.open_ ?chaos:config.chaos ?fs:config.chaos_fs
              ~strict
              ~path:(journal_path ~dir scaled)
              ~key:(Spec.fingerprint scaled) ())
      in
      List.iter
        (fun w -> progress (Printf.sprintf "[%s] %s" scaled.Spec.id w))
        (Robust.Journal.warnings j);
      if Robust.Journal.length j > 0 then
        progress
          (Printf.sprintf "[%s] journal holds %d completed point(s)"
             scaled.Spec.id (Robust.Journal.length j));
      Some j

let run ?pool ?cache ?(progress = fun _ -> ()) config =
  let own_pool = pool = None in
  let pool = match pool with Some p -> p | None -> Parallel.Pool.create () in
  (* One compiled-table cache spans the whole campaign: figures sharing
     a (params, horizon, quantum) point — fig2 and fig7 are identical,
     fig2/fig4 share C = 20 — reuse each other's DP/threshold tables. *)
  let cache =
    match cache with Some c -> c | None -> Strategy.Cache.create ()
  in
  (* One reservation budget spans the whole campaign: figures that start
     late inherit whatever the earlier ones left. *)
  let deadline =
    match config.deadline with
    | None -> Robust.Deadline.unlimited
    | Some budget -> Robust.Deadline.start ~budget ()
  in
  (* The watchdog budget for killed/hung dispatches mirrors the in-task
     retry budget, so "--retry N" bounds both failure modes. *)
  let backend =
    if config.isolate || config.task_timeout <> None then
      Runner.Processes
        (Parallel.Proc_pool.create
           ~workers:(Parallel.Pool.domains pool)
           ?task_timeout:config.task_timeout
           ~attempts:config.retry.Robust.Retry.attempts ())
    else Runner.Domains
  in
  Fun.protect
    ~finally:(fun () -> if own_pool then Parallel.Pool.shutdown pool)
    (fun () ->
      ensure_dir config.out_dir;
      let scale spec =
        let scaled =
          Figures.scale ?n_traces:config.n_traces ?t_step:config.t_step
            ?t_max:config.t_max spec
        in
        (* Strategy, platform and predictor overrides change the spec
           (and therefore its fingerprint) before any journal is opened
           against it. *)
        let scaled =
          match config.strategies with
          | None -> scaled
          | Some strategies -> { scaled with Spec.strategies }
        in
        let scaled =
          match config.platform with
          | None -> scaled
          | Some _ as platform -> { scaled with Spec.platform }
        in
        match config.predictor with
        | None -> scaled
        | Some _ as predictor -> { scaled with Spec.predictor }
      in
      (* Campaign-wide warm-up: with neither a journal (a resume may
         need no tables at all) nor a deadline (an exhausted budget must
         not pay for builds), every figure's table needs are known
         upfront, so build them in one pool-saturating pass. Figures
         sharing tables (fig2/fig7, fig2/fig4 at C = 20) dedup through
         the cache key before any build is scheduled. *)
      (match (config.journal, config.deadline) with
      | No_journal, None ->
          let built =
            Strategy.warm_up_specs
              ~pool:(Runner.parent_pool backend pool)
              cache
              (List.map scale (selected_specs config))
          in
          if built > 0 then
            progress
              (Printf.sprintf "warmed %d table(s) for the campaign" built)
      | _ -> ());
      let skipped = ref [] in
      let results =
        List.filter_map
          (fun spec ->
            let scaled = scale spec in
            if Robust.Deadline.expired deadline then begin
              progress
                (Printf.sprintf "== %s == skipped: deadline exhausted"
                   scaled.Spec.id);
              skipped := scaled.Spec.id :: !skipped;
              None
            end
            else begin
              progress (Printf.sprintf "== %s ==" scaled.Spec.id);
              let journal = open_journal ~progress config scaled in
              let result =
                Fun.protect
                  ~finally:(fun () -> Option.iter Robust.Journal.close journal)
                  (fun () ->
                    Runner.run ~pool ~backend ~deadline ~progress ?journal
                      ~retry:config.retry ?chaos:config.chaos ~cache scaled)
              in
              let path =
                Filename.concat config.out_dir (scaled.Spec.id ^ ".csv")
              in
              retry_write config.retry
                ~key:(Hashtbl.hash (scaled.Spec.id, "csv"))
                (fun () ->
                  Report.to_csv ?chaos_fs:config.chaos_fs result ~path);
              progress
                (Printf.sprintf "wrote %s%s" path
                   (if result.Runner.partial then
                      Printf.sprintf " (partial: %d point(s) missed)"
                        result.Runner.missed
                    else ""));
              Some (scaled, result)
            end)
          (selected_specs config)
      in
      let skipped = List.rev !skipped in
      let partial =
        skipped <> []
        || List.exists (fun (_, r) -> r.Runner.partial) results
      in
      { results; partial; skipped })

let markdown_report outcome =
  let results = outcome.results in
  let md = Output.Markdown.create () in
  Output.Markdown.heading md ~level:1 "Experiment report";
  let all_checks =
    List.concat_map (fun (_, result) -> Report.qualitative_checks result) results
  in
  let failed =
    List.filter (fun c -> not c.Report.passed) all_checks |> List.length
  in
  Output.Markdown.paragraph md
    (Printf.sprintf
       "%d figures regenerated; %d of %d qualitative paper-shape checks hold."
       (List.length results)
       (List.length all_checks - failed)
       (List.length all_checks));
  if outcome.partial then begin
    let missed_figures =
      List.filter_map
        (fun ((spec : Spec.t), (r : Runner.result)) ->
          if r.Runner.partial then
            Some (Printf.sprintf "%s (%d point(s) missed)" spec.Spec.id r.missed)
          else None)
        results
    in
    Output.Markdown.paragraph md
      (Printf.sprintf
         "**Partial report**: the reservation deadline expired before the \
          campaign finished. Completed points are journaled; rerun with \
          [--resume] to finish the rest.%s%s"
         (match missed_figures with
         | [] -> ""
         | fs -> " Incomplete: " ^ String.concat ", " fs ^ ".")
         (match outcome.skipped with
         | [] -> ""
         | ids -> " Not started: " ^ String.concat ", " ids ^ "."))
  end;
  (match Robust.Guard.peek () with
  | [] -> ()
  | ws ->
      Output.Markdown.paragraph md
        (Printf.sprintf
           "%d numerical degradation(s) absorbed during the run \
            (closed-form fallback substituted for a failed solver call):"
           (List.length ws));
      Output.Markdown.bullet md
        (List.map (Format.asprintf "%a" Robust.Guard.pp_warning) ws));
  List.iter
    (fun ((spec : Spec.t), result) ->
      Output.Markdown.heading md ~level:2 spec.Spec.id;
      Output.Markdown.paragraph md spec.Spec.description;
      Output.Markdown.paragraph md
        (Printf.sprintf
           "Parameters: λ=%g, D=%g, R=C, C ∈ {%s}, T ≤ %g (step %g), %d \
            traces per point."
           spec.Spec.lambda spec.Spec.d
           (String.concat ", " (List.map (Printf.sprintf "%g") spec.Spec.cs))
           spec.Spec.t_max spec.Spec.t_step spec.Spec.n_traces);
      Output.Markdown.table md ~header:Report.summary_header
        (Report.summary_rows result);
      match Report.qualitative_checks result with
      | [] -> ()
      | checks ->
          Output.Markdown.bullet md
            (List.map
               (fun c ->
                 Printf.sprintf "%s %s — %s"
                   (if c.Report.passed then "[ok]" else "[??]")
                   c.Report.label c.Report.detail)
               checks))
    results;
  md

let write_report ?(retry = Robust.Retry.no_retry) ?chaos_fs outcome ~path =
  retry_write retry ~key:(Hashtbl.hash ("report", path)) (fun () ->
      Output.Markdown.to_file ?chaos:chaos_fs (markdown_report outcome) ~path)
