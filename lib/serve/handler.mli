(** The request brain: {!Protocol.request} in, {!Protocol.response} out.

    Deliberately socket-free so the same code path is unit-testable and
    micro-benchmarkable without a daemon around it. All server-side
    robustness policy lives here:

    - {e budgets}: every query arms a {!Robust.Deadline} (injectable
      clock). The deadline is checked before and after the expensive
      table build — a request that blows its budget gets a typed
      [timeout] reply instead of an open-ended stall. A table finished
      past the deadline {e stays cached}, so the client's retry is a
      cache hit: the budget bounds one request's latency, it does not
      waste the work.
    - {e bounded cache}: queries fetch their table through
      {!Experiments.Strategy.serve_table} on a shared
      {!Experiments.Strategy.Cache}; give {!create} a bounded cache and
      eviction/hit counters flow back through the [stats] request.
    - {e chaos}: an optional {!Robust.Chaos} is consulted once per
      query (keyed by a monotonic request counter), so fault-injection
      drills exercise the full reply path deterministically.
    - {e no escaping exceptions}: any exception out of a query —
      [Invalid_argument] from table code, an injected fault — is caught
      and answered as [error ...]; the daemon never dies on a request.

    Queries answer with the optimal first-checkpoint completion time
    for the client's remaining reservation, mirroring
    {!Core.Dp.policy}'s re-planning recursion on the k-indexed Section 6
    table built at the query's horizon with
    {!Core.Dp.suggested_kmax}: fresh plans take the best [k] at
    [δ = 0], recovering plans the best [m] at [δ = 1] capped by the
    client's [kleft] (at least 1). Each query reads its platform's serve
    slot: the k-free {!Core.Optimal} table gives those bits, with
    [k] = {!Core.Optimal.plan_length}, in O(1) — for a re-plan, when
    [min (max 1 kleft) kmax(h)] ({!Core.Dp.effective_kmax} at the
    query's horizon) is not below that length. A binding cap — a client
    with fewer checkpoints left than the k-free plan uses — reads the
    slot's k-indexed table ({!Experiments.Strategy.serve_dp_table}),
    built on the first such query. *)

type t

val create :
  ?budget:float ->
  ?now:(unit -> float) ->
  ?slow:float ->
  ?sleep:(float -> unit) ->
  ?chaos:Robust.Chaos.t ->
  cache:Experiments.Strategy.Cache.t ->
  unit ->
  t
(** [budget] is the per-query wall-clock allowance in seconds (default
    unlimited); [now] the injectable clock behind it. [slow] (default
    0) sleeps that many seconds (via [sleep], default [Unix.sleepf]) at
    the head of every query — the deterministic way to drill the
    timeout path from the CLI. *)

val cache : t -> Experiments.Strategy.Cache.t

val handle : t -> Protocol.request -> Protocol.response
(** Thread-safe: workers share one handler. Session requests are
    answered [error ...]: sessions are daemon state, resolved into full
    queries by the server before the handler sees them. *)

val handle_payload : t -> string -> Protocol.response
(** Parse-then-handle; a payload that does not parse is answered
    [error ...] without touching the tables. *)

val handle_batch :
  t -> (Protocol.request, string) result list -> Protocol.response list
(** Answer a batch in order, one reply per element ([Error msg]
    elements — decode failures — answer [error msg]). Queries sharing a
    (params, horizon, quantum) table pay one cache round trip for the
    whole batch instead of one each; per-query policy (budget, chaos,
    injected slowness) still runs per member, so replies are identical
    to [handle] called element-wise on a warm cache. *)
