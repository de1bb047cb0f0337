(** The serve request/reply language.

    One schema is the single source of both spellings: a row per message
    with its keyword, its binary tag byte and its ordered typed fields.
    The eight codecs below only interpret those rows, so the spellings
    cannot drift apart and adding a field is a one-row change.

    The canonical spelling is one line of [key=value] text per message,
    floats rendered with [%.17g] so every query parameter round-trips
    exactly — two clients asking about the same platform hash to the
    same cache key on the server, and a journaled request replays
    bit-identically. Parsing is total: a malformed payload becomes an
    [Error] string (answered as {!Failed}), never an exception out of a
    worker. Requests, then replies, with their tags:

    {v
    ping                                                        1
    stats                                                       2
    query lambda=G c=G r=G d=G horizon=G quantum=G              3
          tleft=G kleft=(INT|-) recovering=(0|1)
    session-open lambda=G c=G r=G d=G horizon=G quantum=G       4
    session-query sid=N tleft=G kleft=(INT|-) recovering=(0|1)  5
    session-close sid=N                                         6

    pong                                                        1
    overloaded                                                  2
    timeout                                                     3
    error MESSAGE                                               4
    answer next=G k=N work=G                                    5
    stats builds=N hits=N evictions=N tables=N bytes=N          6
    session sid=N                                               7
    v}

    [error]'s MESSAGE is free text: everything after the keyword and
    one space, verbatim, whitespace included — the frame delimits it.

    The binary spelling ({!request_to_binary} and friends) is the tag
    byte, then each field little-endian at a fixed offset: float64 bit
    patterns for [G], one byte for [recovering], int64 for the [stats]
    counters, int32 for every other int. Each int field declares one
    range: a request's [sid] is in [\[1, 2^31-1\]]; [kleft] is in
    [\[0, 2^31-1\]] or [None] (int32 [-1] in binary); [k] and a reply's
    [sid] are any int32; the counters are any OCaml [int]. A binary
    encoder raises [Invalid_argument] on a value outside its field's
    range rather than alias it, and both decoders refuse one.

    Both spellings decode through the same validation — valid failure
    parameters, a finite positive horizon and quantum, a finite
    [tleft], the ranges above — so a message is legal or not
    independently of its encoding. The server journals each decoded
    query as {!request_to_string}, so crash-recovery replay stays
    bit-identical whatever the client spoke. *)

type query = {
  params : Fault.Params.t;
  horizon : float;  (** reservation length [T] the DP tables cover *)
  quantum : float;  (** DP time quantum [u] *)
  tleft : float;  (** remaining reservation time at the query instant *)
  kleft : int option;
      (** checkpoints still available when re-planning after a failure;
          [None] means unconstrained ([kmax]). Ignored unless
          [recovering]. *)
  recovering : bool;
      (** true when the execution just recovered from a failure — the
          [δ = 1] re-plan states of Equation (8) *)
}

type platform = {
  plat_params : Fault.Params.t;
  plat_horizon : float;
  plat_quantum : float;
}
(** The per-client state a session pins server-side: everything a
    {!query} carries except the per-instant [tleft]/[kleft]/[recovering]
    deltas. *)

type session_query = {
  sid : int;  (** session id granted by [session-open]; [>= 1] *)
  sq_tleft : float;
  sq_kleft : int option;
  sq_recovering : bool;
}

type request =
  | Ping
  | Stats
  | Query of query
  | Session_open of platform
      (** pin the platform server-side; answered [session sid=N] *)
  | Session_query of session_query
      (** a {!query} against a pinned platform: just the deltas *)
  | Session_close of int  (** release the session slot *)

type answer = {
  next : float;
      (** completion time of the optimal first checkpoint, in time
          units from the query instant; [0] = checkpointing now is not
          worth it (or nothing fits) *)
  k : int;  (** the checkpoint count the plan commits to; [0] = none *)
  work : float;  (** optimal expected work for the remaining time *)
}

type response =
  | Answer of answer
  | Stats_reply of Experiments.Strategy.Cache.stats
  | Pong
  | Overloaded
      (** shed at admission: the bounded request queue was full *)
  | Timeout  (** the per-request budget expired before an answer *)
  | Failed of string  (** malformed request or server-side error *)
  | Session of int  (** session id: the reply to open and close *)

val request_to_string : request -> string
val request_of_string : string -> (request, string) result

val response_to_string : response -> string
val response_of_string : string -> (response, string) result

val request_to_binary : request -> string
val request_of_binary : string -> (request, string) result

val response_to_binary : response -> string
val response_of_binary : string -> (response, string) result

val render_response : response -> string
(** Human-facing one-liner for the CLI ([next=120 k=3 work=1500] style),
    as opposed to the wire spelling. *)
