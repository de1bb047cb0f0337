(** Checksummed message framing over a stream socket.

    A {!conn} wraps a connected socket with a read buffer and two
    negotiated parameters: the framing {!mode} and the per-connection
    frame bound ({!max_frame}).

    {e Text} mode (the default, and the only journal format) {e is} the
    {!Robust.Durable.Framed} record format — one
    [<len> <payload> <fnv64-hex>\n] frame per message, no header line.
    Reusing the journal framing buys the wire the same properties the
    on-disk store has: a frame torn by a dying peer or a corrupted byte
    is detected by the length/checksum pair and rejected as {!Torn},
    never half-parsed, and a canonical text request is framed the same
    way on the wire and in the serve request journal.

    {e Binary} mode replaces the decimal rendering with a fixed layout —
    4-byte little-endian length, payload, 8-byte little-endian FNV-1a 64
    checksum — for hot paths where the [%.17g] round-trip is the cost
    that matters. It is opt-in per connection via the hello below; the
    journal never stores binary bytes (the server journals every decoded
    query as canonical text).

    {e Hello negotiation}: a client that wants binary framing (or a
    non-default frame bound) opens with a 5-byte hello
    [mode byte ('T'|'B'); 4-byte LE requested max frame (0 = default)]
    and the server answers a 5-byte ack [mode byte; granted max frame],
    the grant clamped into [\[min_max_frame, hard_max_frame\]] — a floor
    as well as a ceiling, so a hostile request for a 1-byte bound cannot
    make the server's own replies oversized. A text frame always starts
    with a decimal digit, so a fresh connection's first byte
    disambiguates: digit = legacy text client (no hello, defaults
    apply), anything else = hello. Legacy clients and servers therefore
    interoperate unchanged.

    Frames are bounded by the connection's {!max_frame} so a malformed
    length prefix cannot make the server allocate unbounded memory. *)

type mode = Text | Binary

type error =
  | Closed  (** clean EOF at a frame boundary *)
  | Torn of string
      (** damaged or truncated frame: bad length prefix, short body,
          checksum mismatch, or a frame beyond the connection's
          {!max_frame} (the message reports both the offending length
          and the limit) *)

val error_message : error -> string

val default_max_frame : int
(** Per-connection frame bound when none is negotiated (1 MiB) — far
    above any protocol message, far below harm. *)

val hard_max_frame : int
(** Ceiling on any negotiated frame bound (64 MiB): the server clamps
    hello requests to this, and {!of_fd}/{!client_hello} reject larger
    asks outright. *)

val min_max_frame : int
(** Floor on any {e negotiated} frame bound (4 KiB): the server raises
    hello requests below this so its replies always fit the grant.
    [of_fd] still accepts smaller local bounds (down to 1) for callers
    that want them. *)

type conn
(** A connected socket plus read buffer and negotiated parameters. Not
    thread-safe: one owner at a time. *)

val of_fd : ?mode:mode -> ?max_frame:int -> Unix.file_descr -> conn
(** Wrap a connected socket. Defaults: [Text], {!default_max_frame}.
    Raises [Invalid_argument] when [max_frame] is outside
    [\[1, hard_max_frame\]]. *)

val fd : conn -> Unix.file_descr
val mode : conn -> mode

val max_frame : conn -> int
(** The connection's current frame bound (updated by negotiation). *)

val buffered : conn -> bool
(** Whether already-read bytes are waiting in the connection buffer — a
    multiplexing loop must drain these before trusting [select], which
    only sees the kernel's side. *)

val send : conn -> string -> unit
(** Write one framed payload in the connection's mode (loops on short
    writes, restarts on [EINTR]). Raises [Unix.Unix_error] on a dead
    peer — with [SIGPIPE] ignored that is [EPIPE], not a process kill —
    and [Invalid_argument] on a payload beyond {!max_frame}. *)

val send_many : conn -> string list -> unit
(** Write several framed payloads with one [write]. Framing is exactly
    [send] applied in order — a receiver cannot tell the difference —
    but a burst of replies costs one syscall instead of one per frame.
    Same errors as {!send}; on [Invalid_argument] nothing is written. *)

val recv : conn -> (string, error) result
(** Read one frame in the connection's mode and return its verified
    payload. A frame is checked where it lies in the read buffer and
    only its payload is copied out. Text frames go through
    {!Robust.Durable.Framed.check}, so acceptance means exactly: these
    are the bytes the sender's {!Robust.Durable.Framed.frame} produced
    for this payload (a leading zero in the length, an upper-case
    digest or a wrong separator is a checksum mismatch). Binary frames
    verify the FNV-1a 64 checksum.

    Reads block until a whole frame arrives — unless the socket carries
    a receive timeout ([SO_RCVTIMEO]), in which case a peer that goes
    silent mid-frame for longer than the timeout is reported as [Torn]
    (the server sets one on every accepted socket so a stalled
    connection cannot pin a multiplexing worker). The same conversion
    applies inside {!client_hello} and {!server_negotiate}. *)

val client_hello :
  conn -> mode:mode -> ?max_frame:int -> unit -> (bool, error) result
(** Send the 5-byte hello and read the server's ack, switching the
    connection to the negotiated mode and granted frame bound.
    [max_frame] is the requested bound (omitted = server default).
    [Ok true] on a successful negotiation; [Ok false] when the peer
    answered with a legacy text frame instead (a pre-negotiation server,
    or one shedding at admission) — the frame is left buffered for
    {!recv} and the connection stays in text mode. *)

val server_negotiate : conn -> (unit, error) result
(** Accept a possible hello at the head of a fresh connection: a digit
    first byte means a legacy text client (nothing is consumed, text
    defaults stand); otherwise the hello is read, the requested bound
    clamped into [\[min_max_frame, hard_max_frame\]]
    (0 = {!default_max_frame}), the ack written, and the connection
    switched. Call once, before the first {!recv}. *)
