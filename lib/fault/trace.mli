(** Failure traces.

    A trace is a sequence of failure inter-arrival times (IATs): IAT [j] is
    the exposed time (time during which failures may strike, i.e. excluding
    downtime) between the restart after failure [j-1] and failure [j]
    (or from the start of the reservation for [j = 0]).

    Traces are generated lazily and memoised, so the same trace object can
    be replayed by every checkpointing strategy — common random numbers,
    which is how the paper compares strategies on identical instances. *)

type dist =
  | Exponential of { rate : float }
      (** the paper's model; memoryless, MTBF [1/rate] *)
  | Weibull of { shape : float; scale : float }
      (** robustness extension: non-memoryless IATs *)
  | Lognormal of { mu : float; sigma : float }
      (** robustness extension: heavy-tailed IATs *)

val dist_mean : dist -> float
(** Expected IAT of the distribution. *)

val dist_survival : dist -> float -> float
(** [dist_survival dist x] is [P(IAT > x)]; 1 for [x <= 0]. Used by the
    renewal-aware dynamic program. *)

val weibull_with_mtbf : shape:float -> mtbf:float -> dist
(** Weibull distribution with the given shape, scale calibrated so the
    mean IAT equals [mtbf]. *)

val lognormal_with_mtbf : sigma:float -> mtbf:float -> dist
(** Log-normal distribution with the given [sigma], [mu] calibrated so
    the mean IAT equals [mtbf]. *)

type t
(** A single memoised trace. *)

val create : dist:dist -> seed:int64 -> t
(** Fresh trace; IATs are drawn on demand from a generator seeded with
    [seed] and remembered, so [iat] is deterministic and replayable. *)

val of_iats : float array -> t
(** Fixed trace for tests; reading past the end raises
    [Invalid_argument]. All IATs must be positive. *)

val iat : t -> int -> float
(** [iat t j] is the [j]-th inter-arrival time, [j >= 0]. *)

val prefetch : t -> until:float -> unit
(** Force memoisation of every IAT up to cumulative exposed time [until]
    (plus one). After prefetching, concurrent read-only replay of the
    trace from several domains is safe as long as no simulation runs past
    [until]. *)

val iats_until : t -> until:float -> float array
(** The prefix of IATs whose cumulative sum first exceeds [until]
    (forcing generation as needed): enough to replay any reservation of
    length [<= until]. On a fixed trace, returns at most the stored
    IATs. *)

val batch : dist:dist -> seed:int64 -> n:int -> t array
(** [batch ~dist ~seed ~n] builds [n] independent traces whose streams are
    derived from [seed]; trace [i] is identical across calls with the
    same arguments. *)

(** {2 Platform events}

    A malleable platform changes size mid-reservation: failed nodes can
    be permanently lost, spares can rejoin. Each event carries the wall
    clock date at which it takes effect and the processor count
    surviving it — the count the aggregate failure rate must be rescaled
    to (see [Fault.Params.degrade]). Event dates are on the {e wall}
    clock (downtime included), because the simulation engine consumes
    them against its wall clock; an event landing inside a downtime
    window simply takes effect when the downtime ends. *)

type platform_event =
  | Node_lost of { at : float; survivors : int }
      (** a node died for good at wall time [at] *)
  | Node_joined of { at : float; survivors : int }
      (** a spare came up at wall time [at] *)

val event_at : platform_event -> float
val event_survivors : platform_event -> int

val validate_platform_events : platform_event list -> unit
(** Raises [Invalid_argument] unless dates are nonnegative, finite and
    non-decreasing, and every survivor count is [>= 1]. *)

type node_model = {
  nodes : int;  (** initial node count, [>= 1] *)
  spares : int;  (** replacement pool size, [>= 0] *)
  loss_prob : float;
      (** probability in [\[0, 1\]] that a failure permanently kills its
          node (otherwise the node is repaired within the downtime) *)
  rejoin_delay : float;
      (** wall-clock delay before a spare replaces a lost node *)
}
(** Seeded node-level platform model: failures strike the aggregate of
    the alive nodes (per-node rate [rate / nodes]); each failure is
    fatal to its node with probability [loss_prob]; a fatal loss
    consumes a spare (when one is left) that rejoins [rejoin_delay]
    after the downtime. The platform never degrades below one node. *)

val platform :
  model:node_model ->
  rate:float ->
  d:float ->
  horizon:float ->
  seed:int64 ->
  t * platform_event list
(** [platform ~model ~rate ~d ~horizon ~seed] draws one platform
    history: the failure trace (exposed-clock IATs, covering at least
    [horizon]) together with the chronological loss/rejoin events
    (wall-clock dates, one downtime [d] accrued per preceding failure).
    [rate] is the aggregate failure rate at full platform size.
    Deterministic in [seed]. *)

val platform_batch :
  model:node_model ->
  rate:float ->
  d:float ->
  horizon:float ->
  seed:int64 ->
  n:int ->
  (t * platform_event list) array
(** [n] independent platform histories derived from [seed], same
    convention as {!batch}: history [i] is identical across calls with
    the same arguments. *)
