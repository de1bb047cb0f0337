(** Checkpointing policies.

    A policy is queried at the start of the reservation and again after
    every failure (once downtime has elapsed). Given the time left [tleft]
    and whether the execution must begin with a recovery, it writes its
    {e failure-free plan} into the {!Plan.t} buffer it is handed: the
    increasing instants (offsets from now) at which its checkpoints would
    {e complete} if no failure struck.

    {b The buffer contract.} The caller owns the buffer. A query
    overwrites it completely (an empty plan is [len = 0]), and its
    contents are valid until the next query that writes into the same
    buffer. A policy keeps no reference to the buffer: state it needs
    across queries (the DP's outstanding-checkpoint count) lives in the
    policy itself, and a wrapper (slack) may rewrite the plan its inner
    policy wrote. The engine hands every query of every reservation on a
    domain the same buffer and validates each plan in full before
    replaying it ({!query}), so a policy that writes a malformed plan is
    rejected, never silently replayed.

    A well-formed plan for [(tleft, recovering)] satisfies, with
    [base = if recovering then r else 0]:
    - offsets are strictly increasing and every offset is [<= tleft];
    - the first offset is [>= base + c];
    - consecutive offsets differ by at least [c]
      (each segment must contain its own checkpoint).

    The empty plan means "nothing more can be saved": the engine then
    stops, losing any work after the last completed checkpoint. *)

type t = {
  name : string;
  plan : Plan.t -> tleft:float -> recovering:bool -> unit;
      (** [plan buf ~tleft ~recovering] writes the plan into [buf]. *)
  adapt : (Fault.Params.t -> t) option;
      (** How this policy reacts to a platform change: given the updated
          params (the degraded or restored failure rate), return the
          policy to continue the reservation with. [None] — the common
          case — means the policy is static: the engine keeps querying
          the same plan closure after a platform event. The returned
          policy should itself carry an [adapt] so later events re-plan
          too. *)
  on_prediction :
    (tleft:float -> since_commit:float -> window:float -> bool) option;
      (** How this policy reacts to a fired fault prediction: given the
          time left in the reservation, the time elapsed since the last
          committed checkpoint, and the prediction's window width,
          return [true] to take a proactive checkpoint now (banking the
          work accumulated since the last commit, then re-planning) or
          [false] to ignore the event. [None] — the common case —
          ignores every prediction. The hook never sees whether the
          prediction is a true positive: policies have no oracle. *)
}

val make : name:string -> (Plan.t -> tleft:float -> recovering:bool -> unit) -> t
(** A static policy: no [adapt] and no [on_prediction] hook
    ({!set_adapt} and {!set_on_prediction} add them). *)

val set_adapt : t -> (Fault.Params.t -> t) -> t
(** [set_adapt p f] is [p] re-planning through [f] on platform change —
    functional update, [p] itself is untouched. *)

val set_on_prediction :
  t -> (tleft:float -> since_commit:float -> window:float -> bool) -> t
(** [set_on_prediction p f] is [p] answering fired predictions with [f]
    — functional update, [p] itself is untouched. *)

val validate_plan :
  params:Fault.Params.t -> tleft:float -> recovering:bool -> Plan.t -> unit
(** Raises [Invalid_argument] if the plan violates the contract above
    (with a small numerical tolerance). *)

val query :
  t -> Plan.t -> params:Fault.Params.t -> tleft:float -> recovering:bool ->
  unit
(** [query policy buf ~params ~tleft ~recovering] writes [policy]'s plan
    into [buf] and validates it in full: how the engine (and the
    analytical evaluator) ask for a plan. Raises [Invalid_argument] on a
    malformed plan. One call boxes [tleft] once for both steps, which
    keeps the engine's per-query allocation to that one box. *)

(** {2 Generic geometric policies}

    Baselines that need no paper-specific machinery. *)

val no_checkpoint : t
(** Never checkpoints; saves nothing. Lower bound for sanity checks. *)

val single_final : params:Fault.Params.t -> t
(** "Strat1" of the paper's Section 4: one checkpoint completing exactly
    at the end of the remaining reservation. *)

val single_at : params:Fault.Params.t -> offset_from_end:float -> t
(** One checkpoint completing [offset_from_end] before the end (clamped so
    the plan stays feasible). [offset_from_end = 0] is {!single_final}.
    "Strat2" of Section 4.2. *)

val equal_segments : params:Fault.Params.t -> count:int -> t
(** Exactly [count] equal-length segments, each ending with a checkpoint,
    the last one completing at the end of the remaining reservation —
    regardless of [tleft]. Used by the Section 4.3 and Section 5 gain
    analyses. If fewer than [count] checkpoints fit, uses as many as fit. *)

val equal_plan :
  params:Fault.Params.t -> count:int -> Plan.t -> tleft:float ->
  recovering:bool -> unit
(** The plan of [equal_segments ~params ~count], written straight into
    the buffer (empty when [count < 1]). The threshold policies of
    [Core.Policies] pick [count] per query and call this directly. *)

val two_checkpoints : params:Fault.Params.t -> alpha:float -> t
(** "Strat2(α)" of Section 4.3: first checkpoint completes at
    [alpha * tleft], second at [tleft]. [alpha] is clamped to keep both
    segments feasible. *)

val periodic : params:Fault.Params.t -> period:float -> t
(** Fixed-period baseline: work [period], checkpoint, repeat; when the
    remaining length after a checkpoint is shorter than [period + c], a
    final checkpoint completes exactly at the end of the reservation.
    With [period = W_YD] this is the paper's YoungDaly strategy. *)

val max_work : params:Fault.Params.t -> tleft:float -> recovering:bool -> float
(** Work saved by a plan that completes in full: [tleft] minus the initial
    recovery (if any) minus one checkpoint — an upper bound used by
    metrics ([tleft - c] at reservation start). *)
