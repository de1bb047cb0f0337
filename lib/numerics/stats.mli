(** Streaming and batch statistics. *)

type accumulator
(** Welford online accumulator for mean and variance. *)

val acc_create : unit -> accumulator
val acc_add : accumulator -> float -> unit
val acc_count : accumulator -> int
val acc_mean : accumulator -> float
(** Mean of the samples seen so far; [nan] when empty. *)

val acc_variance : accumulator -> float
(** Unbiased sample variance; [nan] with fewer than two samples. *)

val acc_stddev : accumulator -> float
val acc_min : accumulator -> float
val acc_max : accumulator -> float

val acc_merge : accumulator -> accumulator -> accumulator
(** Combine two accumulators as if all their samples had been fed to one
    (parallel reduction of per-domain partial statistics). *)

type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  ci95_half_width : float;
      (** Half-width of the normal-approximation 95% confidence interval
          of the mean; 0 for fewer than two samples. *)
}

val summarize : accumulator -> summary
val of_array : float array -> summary

val mean : float array -> float
val variance : float array -> float
val stddev : float array -> float

val quantile : float array -> q:float -> float
(** [quantile xs ~q] with [0 <= q <= 1], linear interpolation between
    order statistics (type-7). Does not modify [xs]. *)

val quantiles : float array -> qs:float array -> float array
(** [quantiles xs ~qs] is [Array.map (fun q -> quantile xs ~q) qs],
    read off one sorted copy of [xs] instead of one per quantile.
    Does not modify [xs]. *)

val median : float array -> float
