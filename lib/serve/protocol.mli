(** The serve request/reply language.

    The canonical spelling is one line of [key=value] text per message,
    floats rendered with [%.17g] so every query parameter round-trips
    exactly — two clients asking about the same platform hash to the
    same cache key on the server, and a journaled request replays
    bit-identically. Parsing is total: a malformed payload becomes an
    [Error] string (answered as {!Failed}), never an exception out of a
    worker.

    Requests:
    {v
    ping
    stats
    query lambda=G c=G r=G d=G horizon=G quantum=G tleft=G kleft=(INT|-) recovering=(0|1)
    session-open lambda=G c=G r=G d=G horizon=G quantum=G
    session-query sid=N tleft=G kleft=(INT|-) recovering=(0|1)
    session-close sid=N
    v}

    Replies:
    {v
    pong
    stats builds=N hits=N evictions=N tables=N bytes=N
    answer next=G k=N work=G
    session sid=N
    overloaded
    timeout
    error MESSAGE
    v}

    A fixed-layout binary spelling of the same messages exists for the
    hot path ({!request_to_binary} and friends): one tag byte, then
    little-endian float64 bit patterns and int32/int64 counters, with
    [kleft = None] spelled as int32 [-1]. Both spellings decode through
    the same validation — valid failure parameters, a finite positive
    horizon and quantum, a finite [tleft], a positive session id — so a
    query is legal or not independently of its encoding — and the
    binary spelling never reaches the journal
    (the server re-encodes to canonical text first), so crash-recovery
    replay stays bit-identical whatever the client spoke. *)

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
