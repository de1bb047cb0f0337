(* One run of one benchmark workload, in a fresh process.

   perfbench.exe --workload W --seed N --seconds S --trace 0|1
                 --work-dir DIR --fixedlen PATH [--setup-only]

   Samples set-up time from process start (see [probe_setups]), sets
   the workload up once more, measures for [--seconds], checks every
   output, and prints one JSON object as the last line of stdout: the
   checks attempted and failed, an info record and the metrics —
   end-to-end ones with [--trace 0], per-layer ones from a separate
   traced pass with [--trace 1]. With [--setup-only] it sets up, prints
   "ready", tears down and exits 0 only if every set-up check passed. *)

let setup_samples = function "serve-mixed" -> 7 | _ -> 21

let setup_probe (checks : Common.checks) ~setup ~teardown =
  let env = setup () in
  print_endline "ready";
  let ok = teardown env in
  exit (if ok && checks.failed = 0 then 0 else 1)

(* setup_s: spawn this program with --setup-only [samples] times, each
   timed from the spawn until it reports set-up done — process start,
   runtime and module initialisation included — and take the median
   over those the host did not steal from (see Common.least_stolen). *)
let probe_setups checks ~samples args =
  let exe = Sys.executable_name in
  let probe () =
    let r, w = Unix.pipe ~cloexec:true () in
    let t0 = Common.now () in
    let pid =
      Unix.create_process exe
        (Array.of_list ((exe :: args) @ [ "--setup-only" ]))
        Unix.stdin w Unix.stderr
    in
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let ready = In_channel.input_line ic in
    let t = Common.now () -. t0 in
    close_in ic;
    let _, status = Unix.waitpid [] pid in
    Common.check checks
      (ready = Some "ready" && status = Unix.WEXITED 0)
      "set-up probe failed";
    t
  in
  let times = List.init samples (fun _ -> Common.with_steal probe) in
  ( Common.median (Common.least_stolen times),
    ( "setup_samples_s",
      String.concat "," (List.map (fun (t, _) -> Printf.sprintf "%.6f" t) times) ) )

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let work_dir = ref ".perfbench-work" and fixedlen = ref "" and setup_only = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--work-dir", Arg.Set_string work_dir, "DIR scratch files");
      ("--fixedlen", Arg.Set_string fixedlen, "PATH the fixedlen executable");
      ("--setup-only", Arg.Set setup_only, " set up, print \"ready\", tear down");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload W --seed N --seconds S --trace 0|1";
  let work_dir = !work_dir and seed = !seed and seconds = !seconds in
  let traced = !trace = 1 in
  let spans_path = Filename.concat work_dir (Printf.sprintf "spans-%s.json" !workload) in
  let probe_args =
    [
      "--workload"; !workload; "--seed"; string_of_int seed; "--work-dir"; work_dir;
      "--fixedlen"; !fixedlen;
    ]
  in
  let base_info =
    [
      ("ocaml_version", Sys.ocaml_version);
      ("seed", string_of_int seed);
      ("fixedlen_jobs", Option.value (Sys.getenv_opt "FIXEDLEN_JOBS") ~default:"");
    ]
  in
  let checks = Common.checks () in
  match (Figure_load.shape_of !workload, !workload) with
  | Some shape, name ->
      let setup () = Figure_load.setup shape ~seed ~work_dir in
      if !setup_only then
        setup_probe checks ~setup ~teardown:(fun env ->
            Parallel.Pool.shutdown env.Figure_load.pool;
            true);
      let setup_s, samples =
        probe_setups checks ~samples:(setup_samples name) probe_args
      in
      let env = setup () in
      let info = (samples :: base_info) @ Figure_load.info env in
      Fun.protect
        ~finally:(fun () -> Parallel.Pool.shutdown env.Figure_load.pool)
        (fun () ->
          let digest, metrics =
            if traced then Figure_load.run_traced env ~spans_path checks
            else Figure_load.run_untraced env ~seconds checks
          in
          Common.emit ~workload:name ~checks
            ~info:(("csv_digest", digest) :: info)
            ~metrics:(("setup_s", setup_s) :: metrics))
  | None, ("serve-mixed" as name) ->
      let setup () = Serve_load.setup ~fixedlen:!fixedlen ~work_dir ~seed checks in
      if !setup_only then setup_probe checks ~setup ~teardown:(fun env -> snd (Serve_load.teardown env));
      let setup_s, samples =
        probe_setups checks ~samples:(setup_samples name) probe_args
      in
      let env = setup () in
      let metrics =
        match
          if traced then Serve_load.run_traced env ~seconds ~work_dir ~spans_path
          else Serve_load.run_untraced env ~seconds
        with
        | m -> m
        | exception e ->
            Serve_load.kill_hard env.Serve_load.daemon;
            raise e
      in
      let summary, exited = Serve_load.teardown env in
      Common.check checks exited "daemon did not drain and exit 0";
      let server =
        match summary with
        | Some line when traced ->
            let f = Serve_load.summary_field line in
            let requests = f "requests" and batches = f "batches" in
            [
              ("server.requests", float_of_int requests);
              ("server.batches", float_of_int batches);
              ("server.batch_mean", float_of_int requests /. float_of_int (max 1 batches));
              ("server.shed", float_of_int (f "shed"));
            ]
        | _ -> []
      in
      Common.emit ~workload:name ~checks
        ~info:((samples :: base_info) @ Serve_load.info)
        ~metrics:((("setup_s", setup_s) :: metrics) @ server)
  | None, name ->
      Printf.eprintf "perfbench: unknown workload %S\n" name;
      exit 2
