(** Lock-free serving counters.

    Atomics, not a mutex: workers bump them on the hot path and the
    drain summary reads them once at the end. Counts are per daemon
    lifetime; the cache's own counters (builds/hits/evictions) live in
    {!Experiments.Strategy.Cache} and are reported by the [stats]
    query, not here. *)

type t

val create : unit -> t

val incr_accepted : t -> unit
(** A connection made it past admission into the queue. *)

val incr_shed : t -> unit
(** A connection was refused with [overloaded] (queue full). *)

val incr_requests : t -> unit
(** A request frame was read and dispatched to the handler. *)

val incr_answered : t -> unit
(** An [answer]/[pong]/[stats] reply was sent. *)

val incr_timeouts : t -> unit
val incr_failed : t -> unit

val incr_batches : t -> unit
(** A worker round dispatched at least one request to the handler. *)

val incr_idle_closed : t -> unit
(** A connection was closed for exceeding the idle timeout. *)

val summary : t -> string
(** One deterministic line for the drain message:
    [accepted=N shed=N requests=N answered=N timeouts=N failed=N
    batches=N idle-closed=N]. New fields are only ever appended — drill
    scripts substring-match the head of this line. *)
