(** First-class strategy registry.

    One entry per {!Spec.strategy} family. Each entry owns everything a
    strategy needs to exist across the stack: its spec constructor, its
    stable display name, its CLI spelling (with parse/print
    round-trip), the tables it depends on, and a [compile] function
    that turns a spec strategy into an executable {!Sim.Policy.t}.
    Adding a strategy means adding one entry here — the runner, the
    campaign driver, the CLI and the docs all read this list.

    Compilation is backed by a campaign-wide {!Cache} of the expensive
    numerical tables ({!Core.Threshold}, {!Core.Optimal},
    {!Core.Dp_renewal}, and serve's slots), keyed bit-exactly by
    [(params, horizon, kind)] so each table is built at most once per
    campaign no matter how many sub-plots, figures or strategies request
    it. *)

module Cache : sig
  type t
  (** Mutable table store plus instrumentation counters. Every cache
      operation is guarded by an internal mutex, so lookups, inserts and
      the counters are safe from concurrent domains and threads; the
      expensive table builds themselves run outside the lock (two racing
      builders of one key waste a build but converge on identical
      tables — builds are deterministic).

      Keys compare by bit pattern ({!equal_key}): two lookups share a
      table only when every float of their params, horizon and kind is
      the same IEEE value, so [-0.0] and [0.0] are distinct keys. An
      exact hit holds the lock for one hash and one key compare.

      By default the cache is unbounded, matching campaign use where
      every table is needed until the end. {!create} optionally bounds
      the resident set by table count and/or by (exact buffer) bytes;
      over the bound the least-recently-{e used} entry is evicted —
      lookups and inserts refresh recency — and counted in
      {!evictions}. The entry being inserted is never the victim, so a
      lone table larger than the byte bound stays resident and
      answerable.

      The figures' strategies use the threshold, [Optimal] and
      [Renewal] kinds, keyed by exact horizon (a figure sweep compiles
      at its block's longest horizon). Serve uses [Dp] keys, whose
      identity is the platform and quantum alone: one {e serve slot}
      per [(params, quantum)] holds the k-free {!Core.Optimal} table at
      the longest horizon asked so far, and answers every horizon up to
      it (V(n, δ) does not depend on the horizon); a longer horizon
      rebuilds the slot there. The slot gains the k-indexed
      {!Core.Dp} table at its horizon the first time a client's
      [kleft] cap binds ({!serve_dp_table}); that build counts as one
      more build and its bytes join the slot's. A slot is one table to
      [max_tables] and is evicted whole. *)

  type kind =
    | Threshold_numerical
    | Threshold_first_order
    | Dp of { quantum : float }
        (** Serve's slot for a platform and quantum, at any horizon
            ({!serve_table}, {!serve_dp_table}); no strategy requires
            it. *)
    | Optimal of { quantum : float }
        (** The k-free table all five DP-backed strategies compile
            from: [dp], [adaptive-dp], [proactive-window],
            [variable-segments] and [optimal]. *)
    | Renewal of { quantum : float; dist : Fault.Trace.dist }
        (** The renewal table depends on the IAT distribution, not just
            on [params] — two specs with the same grid but different
            failure laws must not share it. *)

  type key
  (** One table's identity: platform, horizon and kind. *)

  val key : params:Fault.Params.t -> horizon:float -> kind -> key

  val equal_key : key -> key -> bool
  (** The cache's only notion of identity: every float — λ, C, R, D,
      the horizon and the kind's quantum and distribution parameters —
      compares with [Int64.bits_of_float]. [-0.0] differs from [0.0],
      and a NaN equals only a NaN with the same payload. Exact lookups,
      {!warm_up}'s dedupe and [Serve.Handler.handle_batch]'s per-batch
      memo use it; a serve slot compares the same way on everything
      but the horizon, which it covers when not shorter. *)

  val create : ?max_tables:int -> ?max_bytes:int -> unit -> t
  (** Unbounded unless a bound is given. [max_tables] caps the resident
      table count (a serve slot counts once), [max_bytes] the summed
      {!Core.Optimal.bytes}-style buffer footprint; either alone or both
      together. Every table is built serially; sweeps build distinct
      tables at once through {!warm_up}'s pool. Raises
      [Invalid_argument] on a bound [< 1]. *)

  val mem : t -> key -> bool
  (** Whether a lookup of the key would be answered without a build
      (for a [Dp] key: whether a slot covers its horizon). Read-only:
      counts no hit, but refreshes the entry's recency. *)

  val builds : t -> int
  (** Number of tables built so far (cache misses, plus k-indexed
      tables joining a serve slot). *)

  val hits : t -> int
  (** Number of {!ensure} and {!serve_table} lookups answered from the
      cache. *)

  val evictions : t -> int
  (** Number of tables dropped by the LRU bound (0 when unbounded). *)

  val resident_tables : t -> int
  (** Tables currently held. *)

  val resident_bytes : t -> int
  (** Summed exact buffer footprint of the resident tables, the value
      the [max_bytes] bound is enforced against. *)

  type stats = {
    s_builds : int;
    s_hits : int;
    s_evictions : int;
    s_resident_tables : int;
    s_resident_bytes : int;
  }

  val stats : t -> stats
  (** All counters in one consistent snapshot (taken under the cache
      lock — the individual accessors can tear across concurrent
      inserts). *)
end

type error =
  | Missing_table of {
      kind : Cache.kind;
      params : Fault.Params.t;
      horizon : float;
    }
      (** {!val-compile} was asked for a table {!ensure} never built — a
          configuration error in the calling code, reported as data
          instead of crashing the sweep. *)

val error_message : error -> string

type entry = {
  cli : string;  (** stable CLI keyword, e.g. ["dp"] *)
  doc : string;  (** one-line description for [--help] and the README *)
  arg_docv : string option;
      (** metavariable of the optional [:ARG] suffix ([Some "U"],
          [Some "P,R"], [Some "W"]); [None] when the entry is bare *)
  example : Spec.strategy;  (** canonical instance, default argument *)
  parse : arg:string option -> (Spec.strategy, string) result;
      (** spec constructor from the raw text after the colon ([None]
          when the keyword was bare — entries supply their default) *)
  print_arg : Spec.strategy -> string option;
      (** inverse of [parse]: the [:ARG] rendering of an owned
          strategy, or [None] when the default spelling suffices *)
  owns : Spec.strategy -> bool;
  requires : dist:Fault.Trace.dist -> Spec.strategy -> Cache.kind list;
      (** the tables this entry's [compile] will look up *)
  compile :
    Cache.t ->
    params:Fault.Params.t ->
    horizon:float ->
    dist:Fault.Trace.dist ->
    Spec.strategy ->
    (Sim.Policy.t, error) result;
}

val entries : entry list
(** The registry, in the paper's presentation order. *)

val name : Spec.strategy -> string
(** Display name — identical to {!Spec.strategy_name}, which is the
    label used in reports, CSV columns and resume journals. *)

val to_string : Spec.strategy -> string
(** CLI spelling, e.g. ["dp:0.5"]. Guaranteed to round-trip:
    [of_string (to_string s) = Ok s] for every strategy, including
    non-representable-in-%g quanta (falls back to an exact rendering). *)

val of_string : string -> (Spec.strategy, string) result
(** Parse a CLI spelling ([KEYWORD] or [KEYWORD:ARG], e.g. ["dp:0.5"],
    ["predicted-young-daly:0.8,0.9"]). The error lists the known
    spellings. *)

val of_string_list : string -> (Spec.strategy list, string) result
(** Parse a comma-separated list of CLI spellings. The split is
    keyword-aware: a comma opens a new strategy only when the next
    token starts with a registered keyword, so multi-argument
    spellings like ["predicted-young-daly:0.8,0.9"] survive. *)

val requires : dist:Fault.Trace.dist -> Spec.strategy -> Cache.kind list
(** The tables the strategy's [compile] will look up. *)

val ensure :
  ?pool:Parallel.Pool.t ->
  Cache.t ->
  params:Fault.Params.t ->
  horizon:float ->
  dist:Fault.Trace.dist ->
  Spec.strategy list ->
  unit
(** Build (in parallel when [pool] is given) every table the strategies
    need at this [(params, horizon)] point that the cache does not
    already hold. The cache itself is lock-protected, so concurrent
    [ensure] calls (the serve daemon's workers) are safe; racing callers
    may duplicate a build but always converge on identical tables. Only
    pass [pool] from the parent domain — nested pool use deadlocks. *)

type warm_point = {
  wp_params : Fault.Params.t;
  wp_horizon : float;
  wp_dist : Fault.Trace.dist;
  wp_strategies : Spec.strategy list;
}
(** One [(params, horizon, dist, strategies)] point a campaign will
    sweep — the unit of {!warm_up} collection. *)

val warm_up : ?pool:Parallel.Pool.t -> Cache.t -> warm_point list -> int
(** Collect the distinct table keys the given points will need, drop
    the ones the cache already holds, and build the rest — concurrently
    when [pool] is given (builds are independent; inserts happen in the
    caller). Returns the number of tables built. Unlike {!ensure} this
    crosses [(params, horizon)] boundaries, so a whole campaign's tables
    can saturate the pool upfront instead of being built serially
    between per-block simulation bursts. Does not count cache hits:
    later {!ensure} calls observe and count their (now guaranteed)
    hits. Call from the parent process/domain only. *)

val warm_points_of_spec : Spec.t -> warm_point list
(** The warm-up points of one spec: one per sub-plot ([cs] entry) with a
    non-empty reservation grid, at that sub-plot's maximal horizon —
    exactly the [(params, horizon)] keys {!Runner.run}'s sweeps will
    {!ensure}. *)

val warm_up_specs : ?pool:Parallel.Pool.t -> Cache.t -> Spec.t list -> int
(** [warm_up] over the concatenated {!warm_points_of_spec} of a
    campaign's specs. *)

val serve_table :
  Cache.t -> params:Fault.Params.t -> horizon:float -> quantum:float ->
  Core.Optimal.t
(** Serve's k-free table for [(params, quantum)], covering at least
    [horizon]: one lock round trip and a counted hit when the slot's
    horizon covers it, else a counted build at [horizon] that replaces
    a shorter slot (and drops its k-indexed table). Raises
    [Invalid_argument] when the build does (an invalid quantum or
    horizon). *)

val serve_dp_table :
  Cache.t -> params:Fault.Params.t -> horizon:float -> quantum:float ->
  Core.Dp.t
(** The k-indexed Section 6 table of the slot covering [horizon], built
    at the slot's horizon on first need (a counted build, its bytes
    charged to the slot). A [kleft] cap binds only below the length of
    the k-free re-plan it cuts, so the table keeps the rows up to the
    slot's longest re-plan minus one: a DP cell (n, k) depends neither
    on the horizon nor on rows above k, so those rows hold every cell a
    binding cap at any covered horizon reads. Finding the slot counts
    no hit: {!serve_table} counted the query's lookup. *)

val dp_table :
  Cache.t ->
  params:Fault.Params.t ->
  horizon:float ->
  quantum:float ->
  (Core.Dp.t, error) result
(** The k-indexed table of the slot covering [horizon], if a binding
    cap has built it: read-only, counts no hit and builds nothing. *)

val compile :
  Cache.t ->
  params:Fault.Params.t ->
  horizon:float ->
  dist:Fault.Trace.dist ->
  Spec.strategy ->
  (Sim.Policy.t, error) result
(** Compile a strategy against the cache. Cheap (table lookups plus
    policy closure allocation) and read-only, but note that some
    policies — VariableSegments' plan memo — keep state across calls:
    compile a fresh policy per concurrent evaluation.

    {!Spec.Adaptive} strategies compile to the wrapped policy with an
    online re-plan hook: on every platform change the engine hands the
    degraded parameters back and the wrapped strategy is recompiled
    against them {e through this cache} — a degraded-λ point already
    resident (e.g. a shrinking platform revisiting a level) scores a
    hit, a new one builds and inserts synchronously. Compiling adaptive
    strategies is therefore the one write path reachable from worker
    domains; the cache lock makes it safe, but builds/hits counters are
    only deterministic under a single evaluation domain. *)

val compile_exn :
  Cache.t ->
  params:Fault.Params.t ->
  horizon:float ->
  dist:Fault.Trace.dist ->
  Spec.strategy ->
  Sim.Policy.t
(** [compile] with the error raised as [Failure (error_message e)]. *)

val listing : unit -> (string * string * string) list
(** One [(cli spelling, display name, doc)] row per registry entry —
    the single source for the README table and the [strategies]
    subcommand. *)

val markdown_table : unit -> string
(** The listing as a GitHub-flavoured Markdown table. *)
