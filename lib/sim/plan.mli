(** A reusable buffer holding one checkpoint plan.

    A policy answers a query by writing its failure-free plan — the
    increasing offsets (from now) at which its checkpoints would
    complete — into a [t] owned by the caller, replacing whatever the
    buffer held. The simulation engine keeps one buffer per domain and
    hands it to every re-plan, so replaying a reservation allocates no
    plan at all; the buffer only grows, to the longest plan seen.

    Writers store into [offsets] directly after {!reserve}: a writer
    function in this module, called from another, would box every
    float it is passed (the default build compiles each module
    separately, without cross-module inlining). *)

type t = { mutable offsets : float array; mutable len : int }
(** Entries [0 .. len - 1] of [offsets] are the plan; the rest is spare
    capacity. *)

val create : unit -> t
(** An empty plan with a little spare capacity. *)

val clear : t -> unit
(** Empties the plan (keeps the capacity). *)

val reserve : t -> int -> unit
(** [reserve p n] makes [offsets] hold at least [n] entries, keeping
    the first [len]. *)

val to_list : t -> float list
(** The plan as a list, for analytical consumers and inspection. *)
