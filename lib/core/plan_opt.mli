(** Continuous-offset plan optimisation.

    The Section 6 dynamic program restricts checkpoint completions to
    quantum boundaries; this module lifts that restriction for the
    {e current} plan: given the number of checkpoints [k] and a
    continuation value function (what a reservation of a given length is
    worth after a failure), it searches the continuous positions of the
    [k] checkpoints with Nelder–Mead. The objective is the exact
    expectation

    [Σ_j ∫_{o_j}^{o_{j+1}} λ e^{-λt} (W_j + V(tleft - t - D)) dt
     + P_succ(o_k) · W_k]

    evaluated with composite Simpson quadrature.

    Used as an ablation ("how much does quantisation cost?") and to
    refine the threshold heuristic's equal segments ("VariableSegments"
    policy). *)

type objective = private {
  offsets : float list;  (** optimised checkpoint completions *)
  expected_work : float;
  converged : bool;
}

val expected_work :
  params:Fault.Params.t ->
  tleft:float ->
  recovering:bool ->
  continuation:(float -> float) ->
  offsets:float list ->
  float
(** The objective above for a fixed plan. [continuation tleft'] must
    return the expected work of a fresh execution of length [tleft']
    starting with a recovery ([0.] is a valid, myopic choice). *)

val optimize :
  ?restarts:int ->
  params:Fault.Params.t ->
  tleft:float ->
  recovering:bool ->
  k:int ->
  continuation:(float -> float) ->
  unit ->
  objective
(** Maximise over the positions of exactly [k] checkpoints (feasibility
    — ordering, [C]-gaps, fitting in [tleft] — is enforced by rejection;
    the search starts from the equal-segment plan plus [restarts - 1]
    perturbed starts, default 3, keeping the best). Returns the
    equal-segment fallback if [k] checkpoints do not fit. Degradations —
    no feasible start, or a search that hit its iteration cap — fall
    back to the equal-segment split and are recorded as [Robust.Guard]
    warnings rather than raised. *)

val variable_segments_policy :
  params:Fault.Params.t -> horizon:float -> opt:Optimal.t -> Sim.Policy.t
(** "VariableSegments": checkpoint count from the numerical thresholds
    (Section 5), positions optimised continuously with the DP values
    [Optimal.value_q ~delta:true] as continuation. Sits between
    NumericalOptimum and the quantised optimum. Plans are cached per
    quantised [tleft], so repeated simulation replays stay cheap. *)
