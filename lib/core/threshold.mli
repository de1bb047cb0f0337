(** Threshold-based dynamic heuristic (Section 5).

    The heuristic always splits the remaining reservation into [n]
    equal-length segments, each ending with a checkpoint, the last
    checkpoint completing exactly at the end. The thresholds [T_n]
    determine [n]: plan exactly [n] checkpoints when
    [T_n <= tleft <= T_{n+1}], with [T_1 = 0]. *)

val gain : params:Fault.Params.t -> t:float -> n:int -> float
(** [gain ~params ~t ~n] is [Gain(t, n+1) = E(t, n+1) − E(t, n)]: the
    expected-work difference {e until the first failure} between the
    strategies with [n+1] and [n] equally spaced checkpoints over a
    reservation of length [t] (the slice decomposition of Section 5).
    Requires [n >= 1] and [t > 0]. The downtime plays no role in this
    comparison. *)

val gain_brute_force : params:Fault.Params.t -> t:float -> n:int -> float
(** Same quantity computed directly from
    {!Expected.first_failure_value} on the two explicit plans — an
    independent implementation used to validate {!gain}. *)

val threshold_numerical :
  ?t_prev:float -> params:Fault.Params.t -> int -> float
(** [threshold_numerical ~params n] is [T_{n+1}]: the smallest
    [t >= max (t_prev, (n+1) c)] with [gain ~t ~n = 0] crossing from
    negative to positive ([t_prev] defaults to [n c]; pass the previous
    threshold to enforce monotonicity). If no crossing exists below an
    internal search cap (~40 first-order periods) or the root refinement
    fails to bracket — which does not happen for sensible parameters —
    the function degrades gracefully: it returns the first-order
    (Young/Daly-style) closed form {!threshold_first_order} and records
    a [Robust.Guard] warning instead of raising mid-sweep. *)

val threshold_first_order : params:Fault.Params.t -> n:int -> float
(** Equation (5): [T_{n+1} ≈ sqrt (2 n (n+1) C / λ)]. *)

type table = { thresholds : float array }
(** [thresholds.(i)] is [T_{i+1}]; [thresholds.(0) = T_1 = 0]. The table
    covers all thresholds up to its construction bound. *)

val table_numerical : params:Fault.Params.t -> up_to:float -> table
val table_first_order : params:Fault.Params.t -> up_to:float -> table
(** Threshold tables containing every [T_n <= up_to] (plus the sentinel
    [T_1 = 0]). Raises [Invalid_argument] unless [up_to] is finite and
    nonnegative. *)

val segments_for : table -> tleft:float -> int
(** The number [n >= 1] of checkpoints to provision for a remaining
    reservation [tleft]: the largest [n] with [T_n <= tleft]. *)

val geometric_mean_approx : params:Fault.Params.t -> n:int -> float
(** Sanity-check approximation from the paper:
    [sqrt (n (n+1) · 2µC)], the geometric mean of the lengths of [n] and
    [n+1] Young/Daly segments, close to [T_{n+1}]. *)
