(** Streaming statistics: a Welford accumulator and its summary. *)

type accumulator
(** Welford online accumulator for mean and variance. *)

val acc_create : unit -> accumulator
val acc_add : accumulator -> float -> unit
val acc_mean : accumulator -> float
(** Mean of the samples seen so far; [nan] when empty. *)

val acc_variance : accumulator -> float
(** Unbiased sample variance; [nan] with fewer than two samples. *)

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
