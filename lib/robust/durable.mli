(** Crash-consistent writes for every artifact the pipeline produces.

    The paper's premise is that work not captured by a {e completed}
    checkpoint is lost; this module makes our own checkpoints (journal,
    trace files, CSV, reports) live up to that definition. Two
    disciplines, one per artifact shape:

    - {e atomic publish} ({!write_atomic}) for whole-file artifacts:
      temp file, full write (looping on short writes), [fsync] of the
      file, [rename] over the destination, [fsync] of the directory.
      Readers see the old file or the new one, never a torn middle.
    - {e framed append} ({!Framed}) for append-only stores: each record
      is length-prefixed and FNV-64-checksummed, so the recovery scan
      can tell a clean tail from a torn one without trusting record
      contents, and truncate exactly at the first bad byte.

    Files whose {e header} is unreadable are not silently destroyed:
    {!quarantine} moves them to [<path>.quarantine] with a structured
    reason sidecar, and the producer restarts from scratch — a
    quarantined journal costs a recomputation, never a crash.

    All write paths accept a {!Chaos_fs.t} for deterministic fault
    injection (short writes, [EIO]/[ENOSPC], named crash points). *)

val write_atomic : ?chaos:Chaos_fs.t -> ?point:string -> path:string ->
  string -> unit
(** [write_atomic ~path content] publishes [content] at [path]
    atomically and durably (see above). The temporary file
    [path ^ ".tmp"] is removed on failure. [point] (default
    ["publish"]) names the write site for chaos injection. *)

val quarantine : path:string -> reason:string -> string
(** Move [path] to [path ^ ".quarantine"] (replacing any previous
    quarantine) and record [reason] in a [.quarantine.reason] sidecar
    with [file:]/[quarantined-to:]/[reason:] fields. Returns the
    quarantine path. The sidecar write is best-effort: quarantining
    itself must not fail on the sick disk it exists to survive. *)

(** Length-prefixed, checksummed record framing for append-only files.

    On-disk layout, after a caller-supplied header line:
    {v
    <header>\n
    <len> <payload bytes> <fnv64-hex>\n
    ...
    v}
    [<len>] is the decimal byte length of the payload, so payloads may
    contain anything — newlines, spaces, binary — and a recovery scan
    never misparses content as structure. *)
module Framed : sig
  type scan = {
    header : string option;
        (** the first line; [None] if no newline exists yet (empty file
            or torn header write) *)
    records : (int * string) list;
        (** [(start_offset, payload)] of every intact record, oldest
            first, stopping at the first damaged byte *)
    tail_error : (int * string) option;
        (** where and why the scan stopped early; [None] means the file
            is clean to its last byte *)
    length : int;  (** file length in bytes *)
  }

  val scan : path:string -> scan
  (** Recovery scan. Never raises on damaged content (only on I/O
      errors): damage is reported as a short [records] list plus
      [tail_error]. Truncating the file at [tail_error]'s offset (or at
      the start offset of the first record whose {e payload} the caller
      rejects) restores a clean store. *)

  val frame : string -> string
  (** The exact bytes {!append} writes for a payload — exposed so tests
      can build corrupt files surgically. *)

  val frame_length : string -> int
  (** [String.length (frame payload)], without building the frame. *)

  val blit_frame : string -> Bytes.t -> int -> int
  (** [blit_frame payload dst off] writes [frame payload] into [dst] at
      [off] and returns the offset just past it. *)

  val check : string -> pos:int -> limit:int -> (int * int, string) result
  (** [check s ~pos ~limit] checks, in place, the record that starts at
      [pos] and must end by [limit]: a canonical decimal length (no
      leading zero, at most 10 digits), a space, the payload, a space,
      the 16 lower-case hex digits of the payload's FNV-1a 64 digest and
      a newline — exactly the bytes {!frame} writes. [Ok (at, len)]
      locates the payload; the record ends at [at + len + 18]. [Error]
      names the first part that is wrong, in the words {!scan} reports.
      Nothing is copied. *)

  type writer

  val create :
    ?chaos:Chaos_fs.t -> point:string -> path:string -> header:string ->
    unit -> writer
  (** Start a fresh store (truncating any existing file): write the
      header line, then fsync the file and its directory so the store
      itself survives a crash. [point] names the chaos-injection site;
      the header write uses [point ^ "-header"]. *)

  val open_append :
    ?chaos:Chaos_fs.t -> point:string -> path:string -> keep:int -> unit ->
    writer
  (** Reopen an existing store for appending, first truncating it to
      [keep] bytes — the caller passes the clean prefix length its
      {!scan} established. *)

  val append : writer -> string -> unit
  (** Append one framed record and fsync it before returning. If the
      write fails midway (injected or real [EIO]/[ENOSPC]), the store is
      repaired by truncating back to the record's start before the
      exception propagates, so a retried append lands on a clean tail. *)

  val close : writer -> unit
  (** Close the descriptor (every record is already fsync'd). The writer
      must not be used afterwards. *)
end
