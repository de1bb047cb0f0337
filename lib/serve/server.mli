(** The policy-as-a-service daemon.

    One Unix-domain listening socket, plus an optional TCP listener
    ([listen = Some "host:port"]) sharing the same accept loop and
    admission machinery. The main accept thread runs admission control;
    worker loops run on {!Parallel.Pool} domains and pull accepted
    connections from a bounded {!Bqueue} in batches of up to [batch].
    A connection carries any number of framed requests ({!Wire}) —
    text by default, binary after a hello negotiation — each answered
    in order by the shared {!Handler}; queries landing in the same
    worker round share one table-cache round trip per distinct
    (params, horizon, quantum) ({!Handler.handle_batch}).

    Sessions: a [session-open] pins a client's platform in a bounded
    LRU {!Session} table and subsequent [session-query] requests carry
    only the [tleft]/[kleft]/[recovering] deltas; the server resolves
    them into full queries before handling. Session ids are not
    durable — the journal stores the resolved canonical-text query, so
    crash replay never needs the session table.

    Lifecycle and failure story:

    - {e admission}: a connection that does not fit in the queue — or
      would push live connections past [max_conns] — is answered
      [overloaded] and closed by the accept loop itself — bounded
      queue, bounded latency, explicit shedding. Connections silent
      for longer than [idle_timeout] are closed by their worker.
    - {e drain} (SIGTERM/SIGINT under {!run}, or {!stop}): the accept
      loop stops, the queue is closed, workers finish every connection
      already admitted, the request journal is synced and closed, a
      final summary line is printed, exit 0. No in-flight request is
      abandoned.
    - {e crash} (SIGKILL, power loss): the optional request journal is a
      {!Seglog} (a live {!Robust.Durable.Framed} file plus sealed
      rotation segments), so a restart scans segments oldest-first and
      the live tail last, truncates torn bytes, reports how many
      requests it recovered, and serves again — and because answers are
      pure functions of the tables, re-asked queries produce
      bit-identical replies after the crash. The journal is canonical
      text whatever the client spoke: every decoded query — text,
      binary or resolved session — is appended as its canonical line.
    - {e chaos}: [chaos] injects faults into the handler (answered as
      typed errors); [chaos_fs] injects filesystem faults — including
      named crash points — into the journal writes, which is how the
      crash drill above is made deterministic.

    The daemon never re-raises out of a request: a sick request gets a
    typed reply, a sick connection gets closed, the process stays up
    until asked (or SIGKILLed). A query whose horizon, quantum or
    [tleft] is NaN or infinite is refused at decode ({!Protocol}), in
    either spelling, so it never builds or caches a table; the cache
    builds every table serially. *)

type config = {
  socket_path : string;
  listen : string option;
      (** additional TCP endpoint as [HOST:PORT]; port 0 binds an
          ephemeral port, reported on the
          [serve: listening on tcp HOST:PORT] line *)
  workers : int;  (** concurrent worker loops; [>= 1] *)
  queue_capacity : int;
      (** admission bound; 0 sheds every connection (overload drill) *)
  batch : int;
      (** connections a worker multiplexes per pool hop, and therefore
          the most requests one {!Handler.handle_batch} round answers;
          [1] reproduces the unbatched daemon exactly; [>= 1] *)
  max_conns : int option;
      (** cap on concurrently admitted connections, checked at
          admission on top of the queue bound; [None] = uncapped *)
  idle_timeout : float option;
      (** close connections silent this many seconds (swept at the
          worker's 0.2 s select cadence); [None] = never *)
  max_sessions : int;  (** {!Session} table LRU bound; [>= 1] *)
  budget : float option;  (** per-query seconds; [None] = unlimited *)
  slow : float;  (** injected per-query delay (timeout drill); default 0 *)
  journal : string option;  (** framed request journal path *)
  journal_rotate : int option;
      (** rotation threshold in bytes: once an append pushes the live
          journal past it, the bytes are sealed as an immutable
          [<path>.N] segment ({!Seglog}) and the live file restarts;
          [None] never rotates *)
  journal_compact : bool;
      (** merge the sealed segments into one (dropping byte-identical
          duplicate records) before the journal opens — see
          {!Seglog.compact}; a no-op below two segments *)
  chaos : Robust.Chaos.t option;
  chaos_fs : Robust.Chaos_fs.t option;
  max_tables : int option;  (** cache LRU bound, tables *)
  max_bytes : int option;  (** cache LRU bound, summed table bytes *)
  quiet : bool;  (** suppress the listening/drained lines *)
}

val journal_header : string
(** First line of the request journal file. *)

val run : config -> int
(** Serve until SIGTERM/SIGINT, then drain; returns the process exit
    code (0 after a clean drain, 1 on a startup error such as an
    unbindable socket). Installs SIGTERM/SIGINT/SIGPIPE handlers —
    call once, from the main thread of a process that owns them. *)

type handle
(** A daemon started in-process by {!start}. *)

val start : config -> handle
(** Launch the daemon on background threads — accept loop and workers —
    and return once every listener is bound. For embedding a live
    server in a test or benchmark; installs only the SIGPIPE-ignore
    disposition, no termination handlers. Raises ([Unix.Unix_error],
    [Invalid_argument]) on a startup error instead of returning an
    exit code. *)

val stop : handle -> unit
(** SIGTERM semantics for {!start}: stop accepting, drain admitted
    connections, close the journal durably, print the summary line.
    Blocks until the drain completes. Call once. *)

val tcp_port : handle -> int option
(** The bound TCP port (resolves [listen] port 0), when configured. *)
