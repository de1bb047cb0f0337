type result = {
  policy : string;
  horizon : float;
  traces : int;
  proportion : Numerics.Stats.summary;
  mean_work : float;
  mean_failures : float;
  mean_checkpoints : float;
  mean_proactive : float;
  mean_predictions_true : float;
  mean_predictions_false : float;
}

let check_aligned what schedules n =
  match schedules with
  | Some s when Array.length s <> n ->
      invalid_arg ("Runner.evaluate: " ^ what ^ " and traces length mismatch")
  | _ -> ()

(* One pass: the fold keeps a Welford accumulator and six totals, so a
   point costs its engine runs and nothing that grows with the trace
   count. *)
let evaluate ?ckpt_sampler ?platforms ?predictions ~params ~horizon ~policy
    traces =
  let n = Array.length traces in
  if n = 0 then invalid_arg "Runner.evaluate: no traces";
  check_aligned "platforms" platforms n;
  check_aligned "predictions" predictions n;
  let prop = Numerics.Stats.acc_create () in
  let work = ref 0.0 and fails = ref 0 and ckpts = ref 0 in
  let proactive = ref 0 and pred_true = ref 0 and pred_false = ref 0 in
  for i = 0 to n - 1 do
    let platform = match platforms with None -> None | Some p -> Some p.(i) in
    let predictions =
      match predictions with None -> None | Some p -> Some p.(i)
    in
    let o =
      Engine.run ?ckpt_sampler ?platform ?predictions ~params ~horizon ~policy
        traces.(i)
    in
    Numerics.Stats.acc_add prop (Engine.proportion_of_work ~params ~horizon o);
    work := !work +. o.Engine.work_saved;
    fails := !fails + o.Engine.failures;
    ckpts := !ckpts + o.Engine.checkpoints;
    proactive := !proactive + o.Engine.proactive_checkpoints;
    pred_true := !pred_true + o.Engine.predictions_true;
    pred_false := !pred_false + o.Engine.predictions_false
  done;
  let fn = float_of_int n in
  {
    policy = policy.Policy.name;
    horizon;
    traces = n;
    proportion = Numerics.Stats.summarize prop;
    mean_work = !work /. fn;
    mean_failures = float_of_int !fails /. fn;
    mean_checkpoints = float_of_int !ckpts /. fn;
    mean_proactive = float_of_int !proactive /. fn;
    mean_predictions_true = float_of_int !pred_true /. fn;
    mean_predictions_false = float_of_int !pred_false /. fn;
  }
