(** The paper's figure specifications (Section 7 and Appendix A).

    Every spec defaults to the paper's full campaign settings (1000
    traces, all reservation lengths up to 2000); {!scale} shrinks them
    uniformly for quick runs. *)

val all : Spec.t list
(** fig2 … fig12 (fig7 is fig2's duplicate in the appendix and is listed
    once under both ids), plus the robustness extensions ext-weibull,
    ext-lognormal and ext-stochastic-ckpt. *)

val find : string -> Spec.t option
val ids : string list

val scale : ?n_traces:int -> ?t_step:float -> ?t_max:float -> Spec.t -> Spec.t
(** Override campaign sizes (fewer traces / coarser grid) while keeping
    the physics of the spec. Raises [Invalid_argument] unless
    [n_traces >= 1] and [t_step], [t_max] are finite and positive (a
    non-finite grid bound would never end). *)
