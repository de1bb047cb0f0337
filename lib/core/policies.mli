(** The checkpointing strategies evaluated in the paper (Section 7), plus
    ablation baselines, as executable {!Sim.Policy.t} values.

    These are one-shot constructors: the table-backed ones build their
    threshold/DP tables on every call. Sweeps and campaigns should not
    call them directly — the experiment pipeline compiles strategies
    through the [Experiments.Strategy] registry instead, which shares
    the compiled tables campaign-wide and reduces to exactly the same
    builder calls (so the two paths are bit-identical). *)

val young_daly : params:Fault.Params.t -> Sim.Policy.t
(** Periodic checkpoints every [W_YD = sqrt (2µC)] of work; final
    checkpoint at the very end of the remaining reservation. *)

val daly_second_order : params:Fault.Params.t -> Sim.Policy.t
(** Same scheme with Daly's higher-order period (ablation baseline). *)

val lambert_optimal_period : params:Fault.Params.t -> Sim.Policy.t
(** Same scheme with the exact fixed-work-optimal period (ablation
    baseline: optimal for the wrong objective). *)

val first_order : params:Fault.Params.t -> horizon:float -> Sim.Policy.t
(** Threshold heuristic with the first-order thresholds of Equation (5):
    [n] equal segments when [T_n <= span < T_{n+1}], last checkpoint
    completing at the end. [horizon] bounds the threshold table. *)

val numerical_optimum : params:Fault.Params.t -> horizon:float -> Sim.Policy.t
(** Threshold heuristic with numerically computed thresholds (zeros of
    the exact gain function). *)

val of_threshold_table : name:string -> params:Fault.Params.t ->
  Threshold.table -> Sim.Policy.t
(** Threshold heuristic from a precomputed table (lets sweeps share the
    table across reservation lengths). *)

val dynamic_programming :
  params:Fault.Params.t -> quantum:float -> horizon:float -> Sim.Policy.t
(** Builds the k-free DP table and returns the optimal strategy
    ({!Optimal.build} + {!Optimal.policy}, named "DynamicProgramming").
    Its values and plans equal the Section 6 table's ({!Dp}) bit for bit
    on the paper's grids, at O(T*²) rather than O(T*²·kmax). For sweeps,
    build the table once and call {!Optimal.policy} per evaluation
    instead. *)

val single_final : params:Fault.Params.t -> Sim.Policy.t
(** Re-export of {!Sim.Policy.single_final} (Strat1 of Section 4). *)

val all_paper :
  params:Fault.Params.t -> quantum:float -> horizon:float -> Sim.Policy.t list
(** The paper's four strategies, in presentation order: YoungDaly,
    FirstOrder, NumericalOptimum, DynamicProgramming (quantum as
    given). *)
