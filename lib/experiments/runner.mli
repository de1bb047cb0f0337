(** Executes a figure spec: sweeps the reservation-length grid for every
    (checkpoint cost, strategy) pair, in parallel over a domain pool. *)

type point = {
  t : float;  (** reservation length *)
  mean : float;  (** mean proportion of work done *)
  ci95 : float;  (** 95% confidence half-width of the mean *)
  mean_failures : float;
  mean_checkpoints : float;
}

type curve = {
  c : float;
  strategy : Spec.strategy;
  name : string;
  points : point array;  (** ordered by [t] *)
}

type result = {
  spec : Spec.t;
  curves : curve list;
  partial : bool;
      (** true when the deadline cut the sweep short: some grid points
          were never computed. Completed points are in the journal (when
          one is in use); a relaunch with [--resume] finishes the rest. *)
  missed : int;  (** grid points cancelled or skipped by the deadline *)
}

(** How grid-point tasks execute. [Domains] (the default) shares one
    address space — fast, but a hung or crashing task takes the whole
    run down. [Processes] runs each task in a supervised forked worker
    ({!Parallel.Proc_pool}): a task that hangs past the pool's watchdog
    timeout is SIGKILLed and re-dispatched, and a segfaulting task
    surfaces as that one point's error. Precomputations (trace
    prefetch, DP table builds) run in the parent on {!parent_pool}. *)
type backend = Domains | Processes of Parallel.Proc_pool.t

val parent_pool : backend -> Parallel.Pool.t -> Parallel.Pool.t
(** The pool for parent-side precomputations: [pool] itself on
    [Domains], a one-domain pool on [Processes]. The OCaml 5 runtime
    refuses [fork] for the rest of a process's life once it has spawned
    a domain, even a joined one, so an isolated run must never spawn
    one; its width goes to the forked workers instead. *)

val seed_for : int64 -> c:float -> salt:int -> int64
(** RNG seed for one stream of a sweep: [base] is the spec seed, salt 0
    is the failure-trace batch of the C block and salt [i + 1] the
    checkpoint-noise stream of strategy [i]. The cost enters through a
    checksum of its decimal rendering, so distinct costs — however
    close — can never collide onto the same Monte-Carlo stream. *)

exception
  Sweep_failure of { completed : int; failed : int; first : exn }
(** Raised when grid points still fail after the retry budget. Completed
    points were already committed to the journal (when one is in use),
    so a relaunch with the same journal resumes instead of restarting.
    Deadline misses are {e not} failures: they surface as
    [partial]/[missed] in the result instead. *)

val run :
  ?pool:Parallel.Pool.t ->
  ?backend:backend ->
  ?deadline:Robust.Deadline.t ->
  ?progress:(string -> unit) ->
  ?journal:Robust.Journal.t ->
  ?retry:Robust.Retry.t ->
  ?chaos:Robust.Chaos.t ->
  ?cache:Strategy.Cache.t ->
  Spec.t ->
  result
(** Policies are compiled through the {!Strategy} registry against
    [cache] (a private cache per run by default). Pass a shared cache —
    as {!Campaign.run} does — and the expensive threshold/DP tables are
    built at most once per [(params, horizon, quantum, kind)] across
    every figure and sub-plot of the campaign, instead of once per
    sweep. Each grid point replays the same prefetched traces, so
    strategies are compared on identical failure scenarios. [progress]
    receives human-readable stage messages.

    Resilience knobs:
    - [journal]: must be keyed by [Spec.fingerprint] of this spec. Grid
      points already present are {e not} recomputed (a C block that is
      fully journaled skips trace generation and table builds
      altogether); each newly computed point is appended, and fsync'd,
      as soon as it completes. On the [Processes] backend the append
      happens in the supervising parent as results settle (a forked
      child's writes would be lost with its copy-on-write heap).
    - [retry]: per-task bounded retries with deterministic jittered
      backoff for transient failures ([Robust.Retry.no_retry] by
      default). Because each task is a pure function of the spec, a
      retried task yields the identical point, so curves under
      chaos-with-retry equal fault-free curves exactly — on either
      backend, since [Marshal] round-trips float bits.
    - [chaos]: deterministic fault injection at task boundaries, for
      resilience tests and demos.
    - [deadline]: a reservation budget ({!Robust.Deadline.unlimited} by
      default). Once it expires no new task is dispatched (in-flight
      tasks drain); remaining points are counted in [missed], and
      whatever curves are complete are returned with [partial = true]
      — the run ends gracefully instead of dying.
      A curve is emitted only when {e all} its points completed.
    One task failing (after retries) no longer abandons the others:
    every remaining task completes (and is journaled) before
    {!Sweep_failure} is raised. *)

val curve_for : result -> c:float -> strategy:Spec.strategy -> curve option
