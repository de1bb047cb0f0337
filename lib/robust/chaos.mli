(** Deterministic fault injection for resilience testing.

    Decisions are a pure function of [(seed, key, attempt)] — no global
    RNG state — so the same faults strike the same tasks regardless of
    scheduling order or domain count, and a chaos run is exactly
    replayable. A task that fails on attempt 0 will (at realistic rates)
    succeed when retried, which is how the campaign-under-chaos tests
    prove that retries restore the fault-free curves. *)

exception Injected of string
(** The synthetic failure raised by {!inject}. Carries the key/attempt so
    logs show which task was hit. *)

type t

val create :
  ?failure_rate:float ->
  ?delay_rate:float ->
  ?delay:float ->
  ?hang_rate:float ->
  ?hang:(unit -> unit) ->
  ?sleep:(float -> unit) ->
  seed:int64 ->
  unit ->
  t
(** [failure_rate] (default 0) is the probability that a given
    [(key, attempt)] raises {!Injected}; [delay_rate] (default 0) the
    probability that it first sleeps [delay] seconds (default 0.01,
    via [sleep], default [Unix.sleepf]); [hang_rate] (default 0) the
    probability that it never returns ([hang], default: sleep forever) —
    the drill for watchdog supervision: only a process-isolated backend
    ([Parallel.Proc_pool] with a [task_timeout]) can recover a hung
    task, so do not inject hangs into domain pools. Rates must lie in
    [\[0, 1\]]. *)

val should_fail : t -> key:int -> attempt:int -> bool
(** Pure decision: would [inject] raise for this [(key, attempt)]? *)

val should_delay : t -> key:int -> attempt:int -> bool
(** Pure decision: would [inject] sleep for this [(key, attempt)]? *)

val should_hang : t -> key:int -> attempt:int -> bool
(** Pure decision: would [inject] hang this [(key, attempt)]? *)

val inject : t -> key:int -> attempt:int -> unit
(** Possibly sleep, then possibly raise {!Injected}, then possibly hang,
    per the rates (in that order: an attempt drawn for both failure and
    hang raises rather than hangs, so {!injected_failures} stays
    accountable). Call it at the head of a task body (or before an I/O
    write) to simulate a crash at that point. *)

val injected_failures : t -> int
(** How many times {!inject} actually raised so far (thread-safe
    counter) — lets tests assert that chaos really struck. *)
