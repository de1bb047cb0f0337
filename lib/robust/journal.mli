(** Append-only campaign journal: crash-safe persistence of completed
    grid points.

    The journal applies the paper's own lesson to the reproduction
    pipeline: a long sweep commits each completed [(c, strategy, t)]
    point to disk the moment it is computed, so an interrupted campaign
    resumes from its last checkpoint instead of restarting from zero.

    On-disk format: a {!Durable.Framed} store —
    {v
    # fixedlen-journal v2 <key>
    <len> p <c> <strategy> <t> <mean> <ci95> <failures> <checkpoints> <fnv64>
    v}
    where [<key>] identifies the producing spec (a content hash of the
    spec and its seed — see [Experiments.Spec.fingerprint]) and each
    record is length-prefixed and FNV-64-checksummed by the frame
    layer. Floats are printed with ["%.17g"], so journaled values
    round-trip bit-exactly and a resumed campaign reproduces the same
    curves as an uninterrupted one.

    Recovery rules at {!open_}:
    - missing or empty file: created with a fresh header;
    - corrupted or truncated tail (a torn frame, a checksum mismatch, or
      an unparsable record): the tail is truncated and the journal
      continues from the last good record — the expected outcome of a
      crash mid-append;
    - well-formed header for a {e different} spec/seed: quarantined to
      [<path>.quarantine] and restarted (with a warning) — unless
      [strict] is set, in which case it fails: [strict] is the
      [--resume] contract, where silently discarding someone's journal
      would be worse than stopping;
    - unrecognisable or torn header: quarantined and restarted in
      {e both} modes — an irrecoverably corrupt journal costs a
      recomputation of this point, never the whole campaign.

    [append] is thread-safe (campaign tasks run on multiple domains).
    Every record is fsync'd as it is appended, bounding loss after a
    crash to the record being written. *)

type entry = {
  c : float;
  strategy : string;  (** display name; must contain no whitespace *)
  t : float;
  mean : float;
  ci95 : float;
  mean_failures : float;
  mean_checkpoints : float;
}

type t

val open_ :
  ?chaos:Chaos.t ->
  ?fs:Chaos_fs.t ->
  ?strict:bool ->
  path:string ->
  key:string ->
  unit ->
  t
(** Open (creating or recovering as described above) a journal for
    producer [key]. [chaos], if given, injects synthetic failures into
    subsequent {!append} calls; [fs] injects filesystem faults (short
    writes, [EIO]/[ENOSPC], crash points) into the write path itself,
    at the write site ["journal"] (so [--chaos-crash-at journal:N]
    selects it). Raises [Failure] in [strict] mode on a key mismatch,
    [Failure] with a [cannot open journal] message on an unwritable
    path, and [Invalid_argument] on a key containing whitespace. *)

val warnings : t -> string list
(** Human-readable notes from recovery at open time (quarantined
    journal, truncated tail, …), oldest first. *)

val length : t -> int

val find : t -> c:float -> strategy:string -> t:float -> entry option
(** Lookup by grid point. Coordinates compare exactly; this is sound
    because journaled floats round-trip through ["%.17g"]. *)

val append : t -> entry -> unit
(** Persist one completed point (thread-safe, framed append, fsync'd
    before it returns). If the write fails midway the file is
    repaired back to the previous record boundary before the exception
    propagates, so a retried append finds a clean tail. Raises
    [Invalid_argument] if [strategy] contains whitespace,
    [Chaos.Injected] under injection, [Unix.Unix_error] on (injected or
    real) I/O failure. *)

val close : t -> unit
(** Close the file. The journal must not be used afterwards. *)
