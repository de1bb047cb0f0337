(** Renewal-aware optimal strategy: the paper's "future work" direction
    (non-memoryless failures), solved by dynamic programming.

    Model: failure inter-arrival times are i.i.d. from an arbitrary
    distribution (Weibull, log-normal, …) on the {e exposed-time} clock
    — exactly the semantics of {!Fault.Trace}. The process renews at
    every failure; the platform is fresh at the start of the
    reservation. Because the distribution is not memoryless, the value
    of the remaining reservation depends on the {e age} [a]: the exposed
    time elapsed since the last failure (or since the start).

    State: [(n, a)] in quanta, with the recovery-pending variant only
    needed at age 0 (a failure resets the age, and downtime is not
    exposed). Transition for placing the next checkpoint completion at
    quantum [i]:

    [V(n, a) = max (0, max_i S(a+i)/S(a) · (w_i + V(n-i, a+i))
                      + Σ_f (S(a+f-1)-S(a+f))/S(a) · V_R(n-f-D))]

    where [S] is the IAT survival function and [V_R(m) = V(m, 0)] with
    the recovery charged to the first segment. Reachable ages satisfy
    [a + n <= T*], so the table is triangular; the build costs
    O(Tq³) — keep horizons moderate (≤ ~1000 quanta).

    With an exponential distribution the age is irrelevant and this
    module coincides with {!Optimal} — a property enforced by the test
    suite. On Weibull/log-normal traces its policy is provably optimal
    for the quantised model, giving an upper reference against which the
    exponential-derived strategies are measured. *)

type t

val build :
  params:Fault.Params.t ->
  dist:Fault.Trace.dist ->
  quantum:float ->
  horizon:float ->
  unit ->
  t
(** [params.lambda] is ignored for failure timing (the [dist] rules);
    costs C/R/D come from [params] and are rounded to quanta. Rejects
    the same quantum and horizon as {!Dp.build}. *)

val value_q : t -> n:int -> age:int -> float
(** [V(n, a)] in time units; fresh start (no pending recovery).
    Requires [n + age <= horizon_quanta]. *)

val value : t -> tleft:float -> float
(** Value at the start of the reservation (age 0). *)

val plan_q : t -> n:int -> age:int -> delta:bool -> int list
(** Failure-free plan from a state; [delta] charges a leading recovery
    (only meaningful at [age = 0], the post-failure state). *)

val policy : t -> Sim.Policy.t
(** Executable policy. Age is implicit in the plan queries: fresh
    reservations start at age 0, and re-planning happens only after a
    failure, i.e. again at age 0 — so the policy needs no hidden
    state. *)

val quantum : t -> float
val horizon_quanta : t -> int

val bytes : t -> int
(** Exact resident footprint of the triangular tables plus the
    post-failure rows in bytes, for cache memory accounting. *)
