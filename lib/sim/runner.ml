type result = {
  policy : string;
  horizon : float;
  traces : int;
  proportion : Numerics.Stats.summary;
  quantiles : float * float * float;
  mean_work : float;
  mean_failures : float;
  mean_checkpoints : float;
  mean_proactive : float;
  mean_predictions_true : float;
  mean_predictions_false : float;
}

type quantile_mode = Exact | Streaming

(* Quantile state for the fold: the exact path buffers every sample
   (type-7 interpolation needs the full order statistics and is the
   golden-output default); the streaming path keeps three P² marker
   sets and is O(1) in [n_traces]. *)
type quantile_acc =
  | Buffered of { mutable buf : float array; mutable len : int }
  | P2 of { p5 : Numerics.Stats.P2.t; p50 : Numerics.Stats.P2.t; p95 : Numerics.Stats.P2.t }

type stream = {
  s_params : Fault.Params.t;
  s_horizon : float;
  s_policy : Policy.t;
  s_ckpt_sampler : (unit -> float) option;
  s_proactive_c : float option;
  s_prop : Numerics.Stats.accumulator;
  s_quant : quantile_acc;
  mutable s_traces : int;
  mutable s_work : float;
  mutable s_fails : int;
  mutable s_ckpts : int;
  mutable s_proactive : int;
  mutable s_pred_true : int;
  mutable s_pred_false : int;
}

let stream_create ?ckpt_sampler ?proactive_c ?(quantile_mode = Exact) ~params
    ~horizon ~policy () =
  let s_quant =
    match quantile_mode with
    | Exact -> Buffered { buf = Array.make 64 0.0; len = 0 }
    | Streaming ->
        P2
          {
            p5 = Numerics.Stats.P2.create ~q:0.05;
            p50 = Numerics.Stats.P2.create ~q:0.5;
            p95 = Numerics.Stats.P2.create ~q:0.95;
          }
  in
  {
    s_params = params;
    s_horizon = horizon;
    s_policy = policy;
    s_ckpt_sampler = ckpt_sampler;
    s_proactive_c = proactive_c;
    s_prop = Numerics.Stats.acc_create ();
    s_quant;
    s_traces = 0;
    s_work = 0.0;
    s_fails = 0;
    s_ckpts = 0;
    s_proactive = 0;
    s_pred_true = 0;
    s_pred_false = 0;
  }

let quant_add q x =
  match q with
  | Buffered b ->
      if b.len = Array.length b.buf then begin
        let bigger = Array.make (2 * b.len) 0.0 in
        Array.blit b.buf 0 bigger 0 b.len;
        b.buf <- bigger
      end;
      b.buf.(b.len) <- x;
      b.len <- b.len + 1
  | P2 { p5; p50; p95 } ->
      Numerics.Stats.P2.add p5 x;
      Numerics.Stats.P2.add p50 x;
      Numerics.Stats.P2.add p95 x

let quant_result = function
  | Buffered b ->
      let q =
        Numerics.Stats.quantiles (Array.sub b.buf 0 b.len)
          ~qs:[| 0.05; 0.5; 0.95 |]
      in
      (q.(0), q.(1), q.(2))
  | P2 { p5; p50; p95 } ->
      ( Numerics.Stats.P2.value p5,
        Numerics.Stats.P2.value p50,
        Numerics.Stats.P2.value p95 )

let stream_feed ?platform ?predictions s trace =
  let outcome =
    Engine.run ?ckpt_sampler:s.s_ckpt_sampler ?platform ?predictions
      ?proactive_c:s.s_proactive_c ~params:s.s_params ~horizon:s.s_horizon
      ~policy:s.s_policy trace
  in
  let p = Engine.proportion_of_work ~params:s.s_params ~horizon:s.s_horizon outcome in
  Numerics.Stats.acc_add s.s_prop p;
  quant_add s.s_quant p;
  s.s_traces <- s.s_traces + 1;
  s.s_work <- s.s_work +. outcome.Engine.work_saved;
  s.s_fails <- s.s_fails + outcome.Engine.failures;
  s.s_ckpts <- s.s_ckpts + outcome.Engine.checkpoints;
  s.s_proactive <- s.s_proactive + outcome.Engine.proactive_checkpoints;
  s.s_pred_true <- s.s_pred_true + outcome.Engine.predictions_true;
  s.s_pred_false <- s.s_pred_false + outcome.Engine.predictions_false

let stream_count s = s.s_traces

let stream_result s =
  if s.s_traces = 0 then invalid_arg "Runner.stream_result: no traces";
  let fn = float_of_int s.s_traces in
  {
    policy = s.s_policy.Policy.name;
    horizon = s.s_horizon;
    traces = s.s_traces;
    proportion = Numerics.Stats.summarize s.s_prop;
    quantiles = quant_result s.s_quant;
    mean_work = s.s_work /. fn;
    mean_failures = float_of_int s.s_fails /. fn;
    mean_checkpoints = float_of_int s.s_ckpts /. fn;
    mean_proactive = float_of_int s.s_proactive /. fn;
    mean_predictions_true = float_of_int s.s_pred_true /. fn;
    mean_predictions_false = float_of_int s.s_pred_false /. fn;
  }

let evaluate ?ckpt_sampler ?quantile_mode ?platforms ?predictions ?proactive_c
    ~params ~horizon ~policy traces =
  if Array.length traces = 0 then invalid_arg "Runner.evaluate: no traces";
  (match platforms with
  | Some ps when Array.length ps <> Array.length traces ->
      invalid_arg "Runner.evaluate: platforms and traces length mismatch"
  | _ -> ());
  (match predictions with
  | Some ps when Array.length ps <> Array.length traces ->
      invalid_arg "Runner.evaluate: predictions and traces length mismatch"
  | _ -> ());
  let s =
    stream_create ?ckpt_sampler ?proactive_c ?quantile_mode ~params ~horizon
      ~policy ()
  in
  Array.iteri
    (fun i tr ->
      let platform = Option.map (fun ps -> ps.(i)) platforms in
      let predictions = Option.map (fun ps -> ps.(i)) predictions in
      stream_feed ?platform ?predictions s tr)
    traces;
  stream_result s

let pp_result ppf r =
  Format.fprintf ppf
    "%-22s T=%-8g traces=%-5d work=%.4f (±%.4f) failures=%.2f ckpts=%.2f"
    r.policy r.horizon r.traces r.proportion.Numerics.Stats.mean
    r.proportion.Numerics.Stats.ci95_half_width r.mean_failures
    r.mean_checkpoints
