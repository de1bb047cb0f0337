(** Multi-trace evaluation of a policy at one parameter point. *)

type result = {
  policy : string;
  horizon : float;
  traces : int;
  proportion : Numerics.Stats.summary;
      (** distribution of [work_saved / (horizon - c)] across traces *)
  mean_work : float;
  mean_failures : float;
  mean_checkpoints : float;
  mean_proactive : float;  (** proactive checkpoints per trace *)
  mean_predictions_true : float;  (** fired true positives per trace *)
  mean_predictions_false : float;  (** fired false alarms per trace *)
}

val evaluate :
  ?ckpt_sampler:(unit -> float) ->
  ?platforms:Engine.platform array ->
  ?predictions:Fault.Predictor.event list array ->
  params:Fault.Params.t ->
  horizon:float ->
  policy:Policy.t ->
  Fault.Trace.t array ->
  result
(** Runs the policy on every trace and aggregates, in one pass: each
    {!Engine.run} outcome is folded into a Welford accumulator and the
    per-trace counters, and nothing else is kept. Each trace is
    replayed from its beginning, so passing the same array to several
    policies compares them on identical failure scenarios. [platforms]
    and [predictions], when given, must align with [traces]: entry [i]
    is trace [i]'s event schedule / predicted stream, so policies are
    also compared on identical platform histories and predictions
    (common random numbers). Raises [Invalid_argument] on an empty
    trace array or a misaligned [platforms] / [predictions]. *)
