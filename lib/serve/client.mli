(** Client side of the serve protocol.

    A thin wrapper over {!Wire} plus the overload etiquette the server's
    shedding asks for: when the daemon answers [overloaded] (or is not
    accepting connections at all), {!query} backs off through a
    {!Robust.Retry} policy — jittered, deterministic, and ideally
    decorrelated ([Retry.make ~decorrelated:true]) so a herd of shed
    clients does not re-arrive in lockstep. The retry key is derived
    from the request payload's checksum, so distinct queries spread
    over distinct jitter streams while a replayed client stays
    replayable; the jitter seed can be pinned per invocation ([?seed],
    or the [FIXEDLEN_SERVE_SEED] environment variable) so a
    shedding-retry test is deterministic end to end.

    Endpoints: a [socket] string containing [':'] is a TCP [HOST:PORT]
    endpoint (an empty host means loopback); anything else is a
    Unix-domain socket path. *)

val connect : socket:string -> Wire.conn
(** Connect to the daemon (Unix-domain path or TCP [HOST:PORT]; TCP
    connections set [TCP_NODELAY]). Raises [Unix.Unix_error] (e.g.
    [ENOENT]/[ECONNREFUSED] when the daemon is not up). *)

val close : Wire.conn -> unit
(** Close the underlying socket, swallowing [Unix_error]. *)

val handshake :
  ?max_frame:int -> Wire.conn -> binary:bool -> (bool, string) result
(** Negotiate the connection's mode and frame bound with
    {!Wire.client_hello}. A no-op [Ok true] when neither [binary] nor
    [max_frame] asks for anything; [Ok false] when the server answered
    with a legacy text frame instead (the frame — typically
    [overloaded] — stays buffered for the next read and the connection
    remains text). *)

val request :
  Wire.conn -> Protocol.request -> (Protocol.response, string) result
(** Send one request on an open connection (in the connection's
    negotiated encoding) and read its reply. [Error] carries a
    transport-level diagnosis (torn frame, closed connection);
    protocol-level failures arrive as [Ok (Failed _)]. *)

val query :
  ?retry:Robust.Retry.t ->
  ?sleep:(float -> unit) ->
  ?seed:int64 ->
  ?binary:bool ->
  ?max_frame:int ->
  socket:string ->
  Protocol.request ->
  (Protocol.response, string) result
(** One-shot: connect, handshake if asked ([binary]/[max_frame]), send,
    read, close — retrying (fresh connection each attempt) while the
    answer is [overloaded] or the connection is refused. Default [retry]
    is {!Robust.Retry.no_retry} (single attempt); when every attempt is
    shed the final answer is [Ok Overloaded], mirroring what the server
    said. [sleep] overrides the backoff sleeper for tests. [seed]
    re-seeds the retry jitter stream (overriding [FIXEDLEN_SERVE_SEED],
    which overrides the policy's own seed) without touching its shape. *)
