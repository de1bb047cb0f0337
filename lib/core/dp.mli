(** Optimal checkpointing strategy by dynamic programming over time
    quanta (Section 6).

    Time is discretised into quanta of length [u]: the reservation has
    [Tq = T/u] quanta, checkpoints last [Cq = C/u] quanta, and failures
    strike at quantum boundaries. [E(n, k, δ)] is the optimal expected
    work achievable in [n] quanta when planning exactly [k] checkpoints,
    starting with a recovery iff [δ = 1] (Equations (7) and (8)).

    The tables are computed bottom-up for every [n <= Tq], so one build
    serves every reservation length up to the horizon — including all the
    re-planning states reached after failures. The inner failure term is
    evaluated with a running sum and the [max_{m<=k}] tables are updated
    incrementally, for an overall cost quadratic in the number of quanta
    and linear in [kmax]. *)

type t

val build :
  ?kmax:int ->
  params:Fault.Params.t ->
  quantum:float ->
  horizon:float ->
  unit ->
  t
(** Builds the tables. [c], [r] and [d] are rounded to whole quanta
    (they are exact multiples in all the paper's scenarios). [kmax]
    defaults to the exact bound floor(Tq/Cq); a smaller cap speeds up
    the build and is safe as long as it exceeds the optimal checkpoint
    count (see {!suggested_kmax}).

    The sweep is serial: the n recurrence is a chain, and sweeps get
    their parallelism from building distinct tables at once. Raises
    [Invalid_argument] unless [quantum] is finite and positive,
    [horizon] is finite and at least one quantum, and [horizon /
    quantum] is below [Sys.max_array_length] (see
    {!Tables.quanta_count}); also on [kmax < 1]. *)

val suggested_kmax : params:Fault.Params.t -> horizon:float -> int
(** A generous cap on the useful number of checkpoints: roughly four
    times the Young/Daly count over the horizon, plus slack; never more
    than the exact bound [T/C]. When [C = 0] (free checkpoints) the
    exact bound does not exist and the cap degrades to one checkpoint
    per time unit. *)

val effective_kmax :
  params:Fault.Params.t -> quantum:float -> horizon:float -> int
(** The {!kmax} of [build ~kmax:(suggested_kmax ~params ~horizon)
    ~params ~quantum ~horizon ()], without building it: the suggested
    cap clipped to the exact bound floor(Tq/Cq) (at least 1). It never
    decreases with the horizon. Raises like {!build} on an invalid
    quantum or horizon. *)

val quantum : t -> float
val horizon_quanta : t -> int
val kmax : t -> int

val bytes : t -> int
(** Exact resident footprint of the tables in bytes (the {!Tables}
    buffers plus the flat argmax row) — what a memory-bounded cache
    charges for holding this build. *)

val expected_work_q : t -> n:int -> k:int -> delta:bool -> float
(** [E(n, k, δ)] in time units (quanta × u). *)

val first_checkpoint_q : t -> n:int -> k:int -> delta:bool -> int
(** Completion quantum of the optimal first checkpoint in state
    [(n, k, δ)]; 0 when no checkpoint improves on doing nothing. *)

val arg_best_m : t -> n:int -> k:int -> int
(** [argmax_{1<=m<=k} E(n, m, 1)] — the checkpoint count the re-planning
    recursion selects after a failure with [k] checkpoints still
    available; 0 when every such state is worthless. *)

val best_expected_work_q : t -> n:int -> delta:bool -> float
(** [max_{1<=k<=kmax} E(n, k, δ)] in time units. *)

val expected_work : t -> tleft:float -> float
(** The optimum of Equation (6) for a reservation of [tleft] time units
    (rounded down to whole quanta). *)

val best_k : t -> n:int -> delta:bool -> int
(** The optimal initial number of checkpoints for [n] quanta (smallest
    maximiser); 0 when no checkpoint fits. *)

val plan_q : t -> n:int -> k:int -> delta:bool -> int list
(** Failure-free plan in quanta: completion quantum of each checkpoint,
    obtained by unrolling the argmax tables from state [(n, k, δ)]. *)

val policy : t -> Sim.Policy.t
(** The DP strategy as an executable policy. At the start of the
    reservation it plans [best_k] checkpoints; after each failure it
    re-plans with the best [m <= k_remaining] checkpoints, where
    [k_remaining] is tracked from the number of checkpoints completed
    before the failure — exactly the recursion of Equation (8). The
    policy is stateful across one simulated reservation; create a fresh
    policy (cheap, tables are shared) per concurrent simulation. *)
