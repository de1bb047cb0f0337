(** A small fixed-size pool of OCaml 5 domains for embarrassingly
    parallel sweeps (the experiment campaign grid).

    Tasks are pulled from a shared atomic counter (self-scheduling), so
    uneven task durations — e.g. DP table builds next to cheap
    simulations — balance automatically. Results preserve input order,
    making parallel runs bit-identical to sequential ones as long as each
    task is deterministic (which they are: every task derives its
    randomness from its own seed).

    Domains share one address space and one fate: a crash or a hang in
    any task takes the whole process with it, and a running task cannot
    be cancelled. When tasks are untrusted in that sense — may not
    terminate, may exhaust memory — prefer {!Proc_pool}, which runs them
    in supervised forked processes with a wall-clock watchdog at the
    cost of a fork per call and marshalled results. *)

type t

val create : ?domains:int -> unit -> t
(** [create ~domains ()] spawns [domains - 1] worker domains (the caller
    participates as the last worker during {!map}). Default:
    [Domain.recommended_domain_count ()], capped to 8. [domains = 1]
    degrades to sequential execution. *)

val domains : t -> int

val map : t -> f:('a -> 'b) -> 'a array -> 'b array
(** [map pool ~f xs] applies [f] to every element, in parallel, returning
    results in input order. Exceptions raised by [f] are re-raised in the
    caller (the first one encountered); remaining tasks are abandoned.
    Scheduling contract on failure: once a task has raised, workers stop
    pulling {e new} tasks promptly (tasks already running complete, and
    their results are retained internally — use {!try_mapi} to observe
    them). Not reentrant: do not call [map] from within [f] on the same
    pool. *)

val mapi : t -> f:(int -> 'a -> 'b) -> 'a array -> 'b array

val try_mapi :
  t -> f:(int -> 'a -> 'b) -> 'a array -> ('b, exn) result array
(** Fault-isolating variant of {!mapi}: every task runs to completion
    regardless of other tasks' failures, and the outcome of task [i] —
    [Ok (f i xs.(i))] or [Error e] with the exception it raised — lands
    at index [i]. One poisoned grid point can no longer abandon the rest
    of a sweep. Compose with [Robust.Retry.run] inside [f] to absorb
    transient failures before they reach the result array. *)

val try_map : t -> f:('a -> 'b) -> 'a array -> ('b, exn) result array

val shutdown : t -> unit
(** Joins the worker domains. The pool must not be used afterwards.
    Idempotent. *)

val with_pool : ?domains:int -> (t -> 'a) -> 'a
(** Scoped creation: shuts the pool down on exit, including on
    exceptions. *)
