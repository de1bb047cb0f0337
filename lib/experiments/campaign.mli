(** Whole-campaign orchestration: run every figure (or a subset), export
    the data, and build the Markdown experiment report used as the basis
    of EXPERIMENTS.md. *)

type journal_mode =
  | No_journal
  | Journal of string
      (** journal each figure to [<dir>/<figure>.journal]; an existing
          journal whose key matches the (scaled) spec is resumed, a
          mismatched or foreign file is reset with a warning *)
  | Resume of string
      (** like [Journal], but a mismatched journal is an error — the
          contract of an explicit [--resume]: never silently discard
          someone's completed points *)

type config = {
  out_dir : string;  (** CSVs land here, one per figure *)
  n_traces : int option;
  t_step : float option;
  t_max : float option;
  figure_ids : string list option;  (** [None] = all *)
  strategies : Spec.strategy list option;
      (** override every selected spec's strategy list (registry
          spellings are parsed by {!Strategy.of_string_list}); affects
          the specs' fingerprints, so journals keyed on the unmodified
          specs are detected as mismatched *)
  platform : Fault.Trace.node_model option;
      (** override every selected spec's malleable-platform model (the
          [--platform-events]/[--spares]/[--loss-rate] flags); like the
          strategy override it changes fingerprints, so mismatched
          journals are detected. Requires exponential specs. *)
  predictor : Fault.Predictor.params option;
      (** override every selected spec's fault predictor (the
          [--predictor P,R,W] flag): each trace gains a predicted-event
          stream derived under common random numbers, and strategies
          with an [on_prediction] hook may checkpoint proactively.
          Changes fingerprints like the other overrides, so mismatched
          journals are detected. *)
  journal : journal_mode;
  retry : Robust.Retry.t;  (** per-grid-point retry budget *)
  chaos : Robust.Chaos.t option;  (** task-level fault injection *)
  chaos_fs : Robust.Chaos_fs.t option;
      (** filesystem fault injection (short writes, I/O errors, crash
          points) threaded into every artifact write: journal appends,
          CSV exports and the Markdown report *)
  deadline : float option;
      (** wall-clock seconds for the {e whole} campaign; when the budget
          runs out, in-flight points drain and remaining work is
          reported as partial instead of crashing *)
  task_timeout : float option;
      (** per-grid-point watchdog (seconds); implies process isolation,
          since only a forked worker can be killed and re-dispatched *)
  isolate : bool;
      (** run grid points in supervised forked workers
          ({!Parallel.Proc_pool}) instead of domains *)
}

val default_config : config
(** out_dir "results", paper-scale everything, all figures, no journal,
    no retries, no chaos, no deadline, in-process domains. *)

type outcome = {
  results : (Spec.t * Runner.result) list;  (** figures that ran *)
  partial : bool;
      (** the deadline cut something short — some figure is missing
          points, or some figure was never started *)
  skipped : string list;
      (** figure ids not started because the budget was already gone *)
}

val run :
  ?pool:Parallel.Pool.t ->
  ?cache:Strategy.Cache.t ->
  ?progress:(string -> unit) ->
  config ->
  outcome
(** Runs the selected figures sequentially (each internally parallel over
    the pool), writing [<out_dir>/<figure>.csv] as results complete.
    One {!Strategy.Cache} (a fresh one unless [cache] is given) spans
    the whole campaign, so compiled threshold/DP/optimal/renewal tables
    are built at most once per [(params, horizon, quantum, kind)] and
    shared across figures and duplicated sub-plots.
    With journaling enabled, every completed grid point is appended to
    its figure's one journal and fsync'd as it lands, and
    already-journaled points are skipped, so a killed
    campaign relaunched on the same journal directory finishes the
    remaining work only. Journal keys are [Spec.fingerprint]s of the
    {e scaled} specs: resuming with different [--traces]/[--t-step]
    overrides is detected as a mismatch rather than silently mixing
    incompatible points.

    With [deadline] set, one {!Robust.Deadline} reservation spans all
    figures: when it expires mid-figure the sweep stops dispatching and
    returns its complete curves ([partial = true] on that figure's
    result); figures not yet started are listed in [skipped]. With
    [isolate] (or [task_timeout], which implies it), grid points run in
    forked workers supervised by a wall-clock watchdog — a hung point is
    SIGKILLed and re-dispatched within the retry budget rather than
    hanging the campaign.

    Raises [Invalid_argument] on an unknown figure id, [Failure] on a
    strict-resume mismatch, [Runner.Sweep_failure] when points fail
    after retries (completed points stay journaled). *)

val markdown_report : outcome -> Output.Markdown.t
(** Per figure: parameters, the summary table, and the qualitative
    paper-shape checks; prefixed by a campaign-wide verdict and, for a
    partial run, which figures are incomplete or unstarted. *)

val write_report :
  ?retry:Robust.Retry.t ->
  ?chaos_fs:Robust.Chaos_fs.t ->
  outcome ->
  path:string ->
  unit
(** {!markdown_report} published atomically and durably to [path].
    [retry] (default {!Robust.Retry.no_retry}) covers transient write
    failures, e.g. those injected by [chaos_fs]. *)
