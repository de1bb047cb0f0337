(** Noise-free figure regeneration.

    For exponential failures and deterministic checkpoint durations, the
    quantised evaluator {!Core.Expected.policy_value_grids} yields the
    expected proportion of work for {e every} reservation length in one
    pass per strategy — no Monte-Carlo, no confidence intervals. Curves
    differ from the simulated ones only by the failure-date quantisation
    (vanishing with the quantum).

    The dynamic-programming strategy is evaluated through
    {!Core.Optimal}, the same k-free table the simulated figures compile
    it from (stateless; values and plans equal to {!Core.Dp}'s bit for
    bit on the figures' tables). *)

type curve = {
  c : float;
  name : string;
  points : (float * float) array;  (** (T, exact expected proportion) *)
}

val supported_strategy : Spec.strategy -> bool
(** VariableSegments and RenewalDP are excluded (the former is too slow
    to evaluate at every state, the latter models a different failure
    law). *)

val figure : ?quantum:float -> Spec.t -> curve list
(** Exact curves for every supported strategy of the spec (quantum
    defaults to 1). Raises [Invalid_argument] if the spec's failure
    distribution is not exponential or its checkpoints are stochastic. *)

val to_csv : curves:curve list -> id:string -> path:string -> unit
val plots : ?width:int -> ?height:int -> Spec.t -> curve list -> string
