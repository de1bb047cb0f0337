(** Execution engine: replays one failure trace against one policy.

    Time accounting follows the paper's model:
    - work, checkpoints and recoveries are exposed to failures;
    - downtime [D] is not (the failed node is being replaced);
    - after a failure at time [t], the time left is [T - t - D] and the
      next execution attempt starts with a recovery [R];
    - only work committed by a {e completed} checkpoint counts;
    - the engine re-queries the policy after every failure, which is
      exactly the recursive definition of a strategy in the paper. *)

type event =
  | Segment_saved of { start : float; finish : float; work : float }
      (** checkpoint completed at [finish]; [work] units committed *)
  | Failure of { at : float; lost : float }
      (** failure at wall-clock [at]; [lost] uncommitted units *)
  | Gave_up of { at : float }
      (** policy returned an empty plan: nothing more can be saved *)
  | Platform_change of { at : float; survivors : int }
      (** a platform event took effect: the engine re-planned against
          the rate degraded to [survivors] processors *)
  | Prediction of { at : float; true_positive : bool }
      (** a predicted event fired at wall-clock [at]; whether the live
          policy took a proactive checkpoint shows as a following
          [Segment_saved] *)

type platform = { initial : int; events : Fault.Trace.platform_event list }
(** A malleable-platform schedule for one reservation: the initial
    processor count the run's [params.lambda] corresponds to, plus the
    wall-clock loss/rejoin events (see {!Fault.Trace.platform_event}).
    On each event the engine rescales the rate with
    [Fault.Params.degrade ~initial ~survivors] and re-queries the
    policy — through its [adapt] hook when it has one, otherwise the
    same static plan closure. *)

type breakdown = {
  working : float;  (** committed useful work *)
  checkpointing : float;  (** completed checkpoints (actual durations) *)
  recovering : float;  (** completed recoveries *)
  down : float;  (** downtime after failures (clipped at the horizon) *)
  lost : float;  (** time destroyed by failures (work, checkpoint or
                     recovery in progress since the last commit) *)
  unused : float;  (** everything else: the tail after the final
                       checkpoint, leftovers too short to exploit,
                       abandoned partial work after a checkpoint overrun *)
}
(** Wall-clock accounting of the reservation; the six components sum to
    the horizon (within floating tolerance). *)

type outcome = {
  work_saved : float;  (** total committed work *)
  checkpoints : int;  (** checkpoints completed *)
  failures : int;  (** failures that struck the execution *)
  replans : int;  (** times the policy was queried *)
  replans_platform : int;
      (** platform events processed (re-plans not caused by a failure) *)
  predictions_true : int;  (** fired predictions backed by a real fault *)
  predictions_false : int;  (** fired false alarms *)
  proactive_checkpoints : int;
      (** completed proactive checkpoints (also counted in
          [checkpoints]) *)
  breakdown : breakdown;
  events : event list;  (** chronological; empty unless [record] *)
}

val run :
  ?record:bool ->
  ?ckpt_sampler:(unit -> float) ->
  ?platform:platform ->
  ?predictions:Fault.Predictor.event list ->
  ?proactive_c:float ->
  params:Fault.Params.t ->
  horizon:float ->
  policy:Policy.t ->
  Fault.Trace.t ->
  outcome
(** [run ~params ~horizon ~policy trace] simulates the full reservation
    of length [horizon], which must be finite and nonnegative
    ([Invalid_argument] otherwise).

    [ckpt_sampler], when given, draws the {e actual} duration of each
    checkpoint (stochastic-checkpoint extension): once per planned
    segment the run enters, in plan order, and a segment re-attempted
    after an ignored prediction keeps its draw. The policy still plans
    with the nominal [params.c], completions shift accordingly, and a
    checkpoint whose shifted completion exceeds the horizon never
    completes. Plans are validated against the policy
    contract; a malformed plan raises [Invalid_argument].

    [platform], when given, replays its loss/rejoin events against the
    run: an event interrupts the current plan at its wall-clock date
    (abandoning the uncommitted span since the last checkpoint into the
    [unused] share — no recovery is charged, the execution simply
    re-plans), degrades the params to the surviving processor count and
    re-queries the policy, via its [adapt] hook when present. Events
    landing during a downtime take effect when the downtime ends; events
    at or past the horizon are ignored. With an empty event list the run
    is bit-identical to one without [platform].

    [predictions], when given, replays a sorted predicted-event stream
    (see {!Fault.Predictor}) on the exposed clock. When a prediction
    fires before the next failure and before the in-flight checkpoint
    completes, the live policy's [on_prediction] hook decides: [true]
    takes a {e proactive checkpoint} of duration [proactive_c]
    (default [params.c], must lie in [\[0, C\]]), banking the work
    accumulated since the last commit and then re-planning the rest of
    the horizon; [false] — or a policy without the hook, or nothing
    bankable, or no room before the horizon — ignores the event at
    zero cost. Proactive checkpoints are exposed to failures like any
    other checkpoint, count in both [checkpoints] and
    [proactive_checkpoints], and preserve the breakdown sum-to-horizon
    invariant. With [predictions] absent or [\[\]] the run is
    bit-identical to one without predictions; an always-ignoring policy
    reproduces the same work, timing and breakdown to the last bit, with
    only the prediction counters (and recorded [Prediction] events)
    registering the fired stream. *)

val proportion_of_work :
  params:Fault.Params.t -> horizon:float -> outcome -> float
(** The paper's reported metric: [work_saved / (horizon - c)].
    Requires [horizon > c]. *)
