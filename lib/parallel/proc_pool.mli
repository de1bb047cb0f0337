(** A fork-based worker pool: process isolation for the campaign sweep.

    {!Pool} runs grid points on OCaml domains, which is fast but shares
    one fate: a segfault, an OOM kill or a non-terminating root-find in
    one grid point takes the whole sweep with it, and a hung domain can
    never be cancelled. This pool runs each task in a forked Unix
    process instead, supervised by the parent:

    - a task that exceeds [task_timeout] wall-clock seconds is
      SIGKILLed and its worker respawned (the watchdog);
    - a worker that dies (crash, OOM kill, [Unix._exit]) settles its
      task as an error and is respawned — one poisoned point cannot
      stall or kill the sweep;
    - killed or crashed tasks are re-dispatched up to [attempts] times
      before their error is recorded;
    - [should_stop] is polled before every dispatch, so a
      [Robust.Deadline] can stop new work the moment the reservation
      budget runs out while in-flight tasks drain normally.

    The contract mirrors {!Pool.try_mapi}: results land at the index of
    their input, every task is attempted, and parallel execution is
    bit-identical to sequential execution for deterministic tasks
    (results cross the pipe via [Marshal], which preserves float bits).

    Workers are forked per {!try_mapi} call, so tasks read the parent's
    state at call time (prefetched traces, DP tables) through
    copy-on-write memory — nothing needs to be serialised but the task
    index and its result. Two consequences of process isolation to plan
    around: in-child writes to parent state are lost (commit results in
    the parent, e.g. via [on_result]), and the calling process must
    never have spawned a domain: the OCaml 5 runtime refuses [fork] for
    good once it has, even after the domain is joined, so running
    {!Pool.map} on more than one domain before {!try_mapi} makes it
    raise {!Fork_refused}.

    Exceptions raised by a task cannot cross the pipe with their
    identity intact, so they are re-raised in the parent as
    {!Task_failed} carrying [Printexc.to_string] of the original. *)

type t

exception Task_failed of { index : int; detail : string }
(** The task body raised; [detail] is the printed child-side exception. *)

exception Task_timeout of { index : int; timeout : float; attempts : int }
(** The task exceeded [task_timeout] on every dispatch attempt and its
    worker was SIGKILLed each time. *)

exception Worker_crashed of { index : int; detail : string }
(** The worker process died without reporting a result (segfault, OOM
    kill, explicit [exit]) on every dispatch attempt. *)

exception Cancelled
(** The task was never dispatched because [should_stop] returned [true]
    — under a deadline this marks work to resume in the next
    reservation, not a failure. *)

exception Fork_refused
(** Raised by {!try_mapi} itself, not per task: a worker could not be
    forked because this process has already spawned a domain. *)

val create :
  ?workers:int ->
  ?task_timeout:float ->
  ?attempts:int ->
  ?heartbeat:float ->
  unit ->
  t
(** [workers] (default: cores, capped to 8) processes are forked per
    {!try_mapi} call. [task_timeout] (default: none) is the wall-clock
    watchdog per dispatch attempt — it covers the task body including
    any in-task retry sleeps, so set it well above the task's retry
    backoff. [attempts] (default 1) is the dispatch budget for tasks
    whose worker hung or crashed; task-level exceptions are {e not}
    re-dispatched (compose with [Robust.Retry] inside [f] for those).
    [heartbeat] (default 0.05 s) bounds how long the supervisor sleeps
    between liveness/deadline polls. *)

val try_mapi :
  t ->
  ?should_stop:(unit -> bool) ->
  ?on_result:(int -> 'b -> unit) ->
  f:(attempt:int -> int -> 'a -> 'b) ->
  'a array ->
  ('b, exn) result array
(** Ordered, fault-isolated map: the outcome of task [i] lands at index
    [i] as [Ok (f ~attempt i xs.(i))] or [Error e] with [e] one of the
    exceptions above. [attempt] is the dispatch attempt (0 on the first
    dispatch, incremented after each kill/respawn) so deterministic
    fault injection keyed on [(key, attempt)] draws fresh decisions
    after a watchdog kill instead of hanging forever. [on_result i v]
    runs in the {e parent} as soon as task [i] settles with [Ok v] — the
    hook for journaling completed points as they land. [should_stop] is
    polled (in the parent) before each dispatch; once it returns [true]
    every not-yet-dispatched task settles as [Error Cancelled].
    Not reentrant; raises [Invalid_argument] after {!shutdown}. *)

val try_map :
  t -> f:('a -> 'b) -> 'a array -> ('b, exn) result array
(** {!try_mapi} without index or attempt. *)

val shutdown : t -> unit
(** Flags the pool closed ({!try_mapi} forks no long-lived state).
    Idempotent. *)

val with_pool :
  ?workers:int ->
  ?task_timeout:float ->
  ?attempts:int ->
  (t -> 'a) ->
  'a
(** Scoped creation: shuts the pool down on exit, including on
    exceptions. *)
