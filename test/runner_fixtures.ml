(* Fixtures shared by the runner-level suites (test_robust,
   test_isolation): a temporary journal path and a deliberately tiny spec
   (2 strategies x 2 grid points x 25 traces) that keeps end-to-end
   sweeps fast, plus a bit-exact comparison of two results. *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1))
  in
  nn = 0 || go 0

let with_temp f =
  let path = Filename.temp_file "fixedlen_journal" ".journal" in
  let rm p = try Sys.remove p with Sys_error _ -> () in
  Fun.protect
    ~finally:(fun () ->
      (* Recovery may have quarantined the file instead of deleting it. *)
      List.iter rm [ path; path ^ ".quarantine"; path ^ ".quarantine.reason" ])
    (fun () -> f path)

let tiny_spec =
  {
    Experiments.Spec.id = "robust-tiny";
    description = "tiny spec for resilience tests";
    lambda = 0.01;
    d = 0.0;
    cs = [ 5.0 ];
    t_max = 60.0;
    t_step = 20.0;
    strategies = [ Experiments.Spec.Young_daly; Experiments.Spec.Single_final ];
    n_traces = 25;
    seed = 7L;
    failure_dist = Experiments.Spec.Exp;
    ckpt_noise = Experiments.Spec.Deterministic;
    platform = None;
    predictor = None;
  }

let check_same_result (a : Experiments.Runner.result)
    (b : Experiments.Runner.result) =
  let module R = Experiments.Runner in
  Alcotest.(check int) "curve count" (List.length a.R.curves)
    (List.length b.R.curves);
  List.iter2
    (fun (ca : R.curve) (cb : R.curve) ->
      Alcotest.(check string) "strategy" ca.R.name cb.R.name;
      Alcotest.(check int)
        (ca.R.name ^ " point count")
        (Array.length ca.R.points) (Array.length cb.R.points);
      Array.iteri
        (fun i (pa : R.point) ->
          let pb = cb.R.points.(i) in
          let same label x y =
            Alcotest.(check (float 0.0))
              (Printf.sprintf "%s[%d] %s bit-exact" ca.R.name i label)
              x y
          in
          same "t" pa.R.t pb.R.t;
          same "mean" pa.R.mean pb.R.mean;
          same "ci95" pa.R.ci95 pb.R.ci95;
          same "failures" pa.R.mean_failures pb.R.mean_failures;
          same "checkpoints" pa.R.mean_checkpoints pb.R.mean_checkpoints)
        ca.R.points)
    a.R.curves b.R.curves

