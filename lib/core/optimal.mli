(** Unrestricted quantised optimum.

    A simpler dynamic program than {!Dp}: the state is only (quanta
    left, starts-with-recovery), and the value function is

    [V(n, δ) = max (0, max_i P(i)·(w_i + V(n - i, 0)) + Σ_f p_f · V(n - f - D, 1))]

    where [i] ranges over feasible completion quanta of the next
    checkpoint and [w_i] is the work it commits. Taking no further
    checkpoint is the [0] branch.

    The paper's Section 6 formulation tracks, in addition, the number
    [k] of checkpoints the strategy committed to — and restricts
    re-planning after a failure to at most that many. Since fewer quanta
    never call for more checkpoints, the restriction does not bind: on
    every table a figure's DP-backed strategy builds, the test suite
    checks that {!Dp.best_expected_work_q} and {!value_q} have equal
    bits at both δ and every [n], and that {!Dp.plan_q} at
    {!Dp.best_k} equals {!plan_q} (a validation of both implementations
    and of the paper's formulation). So this table, at O(T*²) rather
    than O(T*²·kmax), is what the figures compile their DP strategies
    from. {!Dp} remains for a cap on [k] that binds: the serve daemon
    answers from this table until a client's [kleft] is below
    {!plan_length}. *)

type t

val build : params:Fault.Params.t -> quantum:float -> horizon:float -> unit -> t
(** Same rounding conventions and quantum/horizon validation as
    {!Dp.build}; cost is quadratic in the number of quanta (no [kmax]
    factor). Like a {!Dp} cell, [V(n, δ)] never depends on the
    horizon: a table answers every shorter horizon as it is. *)

val value_q : t -> n:int -> delta:bool -> float
(** [V(n, δ)] in time units. *)

val value : t -> tleft:float -> float
(** [V] at [tleft] time units (rounded down to quanta), fresh start. *)

val first_checkpoint_q : t -> n:int -> delta:bool -> int
(** Completion quantum of the first checkpoint of the plan from
    [(n, δ)]; 0 when nothing can be saved. O(1). *)

val plan_length : t -> n:int -> delta:bool -> int
(** Number of checkpoints of the plan from [(n, δ)], i.e. the length
    of {!plan_q}, without unrolling it. O(1). *)

val plan_q : t -> n:int -> delta:bool -> int list
(** Failure-free plan (checkpoint completion quanta) from the argmax
    tables; empty when nothing can be saved. *)

val policy : t -> Sim.Policy.t
(** Executable policy, named "OptimalUnrestricted"; unlike {!Dp.policy}
    it needs no cross-call state (re-planning is by time left only). *)

val quantum : t -> float
val horizon_quanta : t -> int

val bytes : t -> int
(** Exact resident footprint of the value, argmax and plan-length
    arrays in bytes, for cache memory accounting. *)
