type config = {
  socket_path : string;
  listen : string option;
  workers : int;
  queue_capacity : int;
  batch : int;
  max_conns : int option;
  idle_timeout : float option;
  max_sessions : int;
  budget : float option;
  slow : float;
  journal : string option;
  journal_rotate : int option;
  journal_compact : bool;
  chaos : Robust.Chaos.t option;
  chaos_fs : Robust.Chaos_fs.t option;
  max_tables : int option;
  max_bytes : int option;
  quiet : bool;
}

let journal_header = "fixedlen-serve-journal v1"
let journal_point = "serve-journal"

type state = {
  cfg : config;
  handler : Handler.t;
  metrics : Metrics.t;
  sessions : Session.t;
  queue : conn Bqueue.t;
  active : int Atomic.t;
  journal : Seglog.t option;
  journal_lock : Mutex.t;
  stop : bool Atomic.t;
}

and conn = {
  wire : Wire.conn;
  mutable negotiated : bool;
  mutable last_active : float;
  mutable alive : bool;
}

(* Journal a decoded query, as canonical text, before answering it.
   Best-effort on injected I/O errors (Framed.append already repaired
   the tail, a failed seal leaves the live writer intact; the answer is
   worth more than the journal line) — but a chaos {e crash} point is a
   SIGKILL inside the append, which is the whole point of the drill. *)
let journal_query t req =
  match t.journal with
  | Some log -> (
      Mutex.lock t.journal_lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.journal_lock)
        (fun () ->
          try Seglog.append log (Protocol.request_to_string req)
          with Unix.Unix_error _ | Sys_error _ -> ()))
  | None -> ()

let reply_string = Protocol.response_to_string

let encode_response wire resp =
  match Wire.mode wire with
  | Wire.Text -> Protocol.response_to_string resp
  | Wire.Binary -> Protocol.response_to_binary resp

(* [Invalid_argument] here is [Wire.send] refusing a reply beyond the
   connection's negotiated frame bound: a connection problem, never a
   worker-killing one — the caller hangs up exactly as for a dead
   peer. *)
let send_or_give_up c resp =
  try
    Wire.send c.wire (encode_response c.wire resp);
    true
  with Unix.Unix_error _ | Invalid_argument _ -> false

let close_conn t c =
  if c.alive then begin
    c.alive <- false;
    Atomic.decr t.active;
    try Unix.close (Wire.fd c.wire) with Unix.Unix_error _ -> ()
  end

(* Framing is gone on this connection; answer what we can and hang up. *)
let hang_up_torn t c why =
  Metrics.incr_failed t.metrics;
  ignore (send_or_give_up c (Protocol.Failed ("torn frame: " ^ why)));
  close_conn t c

(* What one readable connection contributes to a worker round. *)
type event =
  | Nothing  (** nothing actionable yet (hello consumed, or conn gone) *)
  | Direct of Protocol.response  (** answered by the server itself *)
  | Batch_item of (Protocol.request, string) result
      (** goes to the handler with the rest of the round's batch *)

(* Decode one payload, resolve session requests against the session
   table, and journal every query that will be answered.

   Journal discipline — the journal holds canonical text only: each
   decoded [Query], whether it arrived as text, as binary or as a
   resolved session query, is appended as [request_to_string]. Rejected
   payloads never reach it, and two spellings of one query append the
   same bytes. Sids are not durable, the resolved platform is, so
   replay after a crash is bit-identical without the session table. *)
let decode t c payload =
  let req =
    match Wire.mode c.wire with
    | Wire.Text -> Protocol.request_of_string payload
    | Wire.Binary -> Protocol.request_of_binary payload
  in
  let event =
    match req with
    | Ok (Protocol.Session_open p) ->
        Direct (Protocol.Session (Session.open_ t.sessions p))
    | Ok (Protocol.Session_close sid) ->
        if Session.close t.sessions sid then Direct (Protocol.Session sid)
        else
          Direct (Protocol.Failed (Printf.sprintf "unknown session sid=%d" sid))
    | Ok (Protocol.Session_query sq) -> (
        match
          Session.resolve t.sessions ~sid:sq.Protocol.sid
            ~tleft:sq.Protocol.sq_tleft ~recovering:sq.Protocol.sq_recovering
        with
        | None ->
            Direct
              (Protocol.Failed
                 (Printf.sprintf "unknown session sid=%d" sq.Protocol.sid))
        | Some plat ->
            Batch_item
              (Ok
                 (Protocol.Query
                    {
                      Protocol.params = plat.Protocol.plat_params;
                      horizon = plat.Protocol.plat_horizon;
                      quantum = plat.Protocol.plat_quantum;
                      tleft = sq.Protocol.sq_tleft;
                      kleft = sq.Protocol.sq_kleft;
                      recovering = sq.Protocol.sq_recovering;
                    })))
    | r -> Batch_item r
  in
  (match event with
  | Batch_item (Ok (Protocol.Query _ as q)) -> journal_query t q
  | _ -> ());
  event

let read_frame t c =
  match Wire.recv c.wire with
  | Error Wire.Closed ->
      close_conn t c;
      Nothing
  | Error (Wire.Torn why) ->
      hang_up_torn t c why;
      Nothing
  | Ok payload ->
      Metrics.incr_requests t.metrics;
      c.last_active <- Unix.gettimeofday ();
      decode t c payload

let read_event t c =
  if c.negotiated then read_frame t c
  else
    match Wire.server_negotiate c.wire with
    | Error Wire.Closed ->
        close_conn t c;
        Nothing
    | Error (Wire.Torn why) ->
        hang_up_torn t c why;
        Nothing
    | Ok () ->
        c.negotiated <- true;
        c.last_active <- Unix.gettimeofday ();
        (* The hello may be all that has arrived; only read a frame when
           its bytes are already buffered. *)
        if Wire.buffered c.wire then read_frame t c else Nothing

(* Frames one connection may contribute to a single worker round: high
   enough that a pipelining client fills real batches, low enough that
   one hot connection cannot starve its batchmates. *)
let max_frames_per_round = 32

(* One worker round over the connections that have input: drain every
   frame already buffered on each (up to {!max_frames_per_round}), so a
   pipelining client's burst becomes one {!Handler.handle_batch} round
   sharing cache round trips. Each connection's events are decoded and
   answered strictly in arrival order — session opens land before the
   session queries pipelined behind them, and replies never reorder
   within a connection. *)
let answer_round t ready =
  let drain_conn c =
    let rec go acc n =
      if n = 0 || not c.alive then List.rev acc
      else
        let acc =
          match read_event t c with Nothing -> acc | ev -> ev :: acc
        in
        if c.alive && Wire.buffered c.wire then go acc (n - 1)
        else List.rev acc
    in
    (c, go [] max_frames_per_round)
  in
  let events = List.map drain_conn ready in
  let items =
    List.concat_map
      (fun (_, evs) ->
        List.filter_map
          (function Batch_item r -> Some r | _ -> None)
          evs)
      events
  in
  if items <> [] then Metrics.incr_batches t.metrics;
  let replies = ref (Handler.handle_batch t.handler items) in
  let next_reply () =
    match !replies with
    | [] -> Protocol.Failed "internal: batch reply underrun"
    | r :: rest ->
        replies := rest;
        r
  in
  let count resp =
    match resp with
    | Protocol.Timeout -> Metrics.incr_timeouts t.metrics
    | Protocol.Failed _ -> Metrics.incr_failed t.metrics
    | _ -> Metrics.incr_answered t.metrics
  in
  List.iter
    (fun (c, evs) ->
      let out = ref [] in
      List.iter
        (fun ev ->
          match ev with
          | Nothing -> ()
          | Direct resp ->
              if c.alive then begin
                count resp;
                out := resp :: !out
              end
          | Batch_item _ ->
              (* Consume the reply even for a connection that died
                 mid-round: pairing is positional. *)
              let resp = next_reply () in
              if c.alive then begin
                count resp;
                out := resp :: !out
              end)
        evs;
      match List.rev !out with
      | [] -> ()
      | resps -> (
          (* The whole round's replies to this connection go out in one
             write — with batched rounds, the per-reply syscall is the
             dominant cost this amortizes. *)
          try
            Wire.send_many c.wire (List.map (encode_response c.wire) resps)
          with Unix.Unix_error _ | Invalid_argument _ -> close_conn t c))
    events

let sweep_idle t live =
  match t.cfg.idle_timeout with
  | None -> ()
  | Some limit ->
      let cutoff = Unix.gettimeofday () -. limit in
      List.iter
        (fun c ->
          if c.alive && c.last_active < cutoff then begin
            Metrics.incr_idle_closed t.metrics;
            close_conn t c
          end)
        live

(* Serve a batch of connections until every one of them is gone. Bytes
   already sitting in a connection buffer trump [select] (the kernel
   does not know about them); otherwise the 0.2 s select timeout bounds
   the idle-sweep cadence. The worker tops its batch up from the
   queue opportunistically, so a long-lived connection does not strand
   queued ones behind it. The idle sweep runs on {e every} iteration —
   after the round, so freshly answered connections carry fresh
   timestamps — because one hot connection must not keep its expired
   batchmates open past the idle timeout. *)
let multiplex t first =
  let live = ref first in
  while !live <> [] do
    let room = t.cfg.batch - List.length !live in
    if room > 0 then
      match Bqueue.try_drain t.queue ~max:room with
      | [] -> ()
      | more -> live := !live @ more
    else ();
    let buffered = List.filter (fun c -> Wire.buffered c.wire) !live in
    let ready =
      if buffered <> [] then buffered
      else
        match
          Unix.select (List.map (fun c -> Wire.fd c.wire) !live) [] [] 0.2
        with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
        | [], _, _ -> []
        | fds, _, _ -> List.filter (fun c -> List.mem (Wire.fd c.wire) fds) !live
    in
    if ready <> [] then answer_round t ready;
    sweep_idle t !live;
    live := List.filter (fun c -> c.alive) !live
  done

let rec worker_loop t =
  match Bqueue.pop_batch t.queue ~max:t.cfg.batch with
  | [] -> ()
  | conns ->
      multiplex t conns;
      worker_loop t

let make_conn fd =
  {
    wire = Wire.of_fd fd;
    negotiated = false;
    last_active = Unix.gettimeofday ();
    alive = true;
  }

(* How long a worker's blocking read may wait for the rest of a
   half-sent frame before the connection is torn. [select] only promises
   one readable byte, so without this bound a client that stalls
   mid-frame would pin its whole worker round inside [Wire.recv]. *)
let recv_stall_timeout = 5.0

(* Admission control lives in the accept loop: a connection the queue
   (or the connection cap) will not take is answered and closed here,
   so shedding stays O(1) and cannot be starved by busy workers. *)
let accept_one t lsock =
  match Unix.accept lsock with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | fd, addr ->
      (match addr with
      | Unix.ADDR_INET _ -> (
          try Unix.setsockopt fd Unix.TCP_NODELAY true
          with Unix.Unix_error _ -> ())
      | _ -> ());
      (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO recv_stall_timeout
       with Unix.Unix_error _ | Invalid_argument _ -> ());
      let shed () =
        Metrics.incr_shed t.metrics;
        (try Wire.send (Wire.of_fd fd) (reply_string Protocol.Overloaded)
         with Unix.Unix_error _ -> ());
        try Unix.close fd with Unix.Unix_error _ -> ()
      in
      let capped =
        match t.cfg.max_conns with
        | Some m -> Atomic.get t.active >= m
        | None -> false
      in
      if capped then shed ()
      else begin
        Atomic.incr t.active;
        if Bqueue.try_push t.queue (make_conn fd) then
          Metrics.incr_accepted t.metrics
        else begin
          Atomic.decr t.active;
          shed ()
        end
      end

(* Connections still waiting in the admission queue age too: when every
   worker is pinned on long-lived connections, a queued socket would
   otherwise hold its slot (and its [active] count) forever. *)
let sweep_queued t =
  match t.cfg.idle_timeout with
  | None -> ()
  | Some limit ->
      let cutoff = Unix.gettimeofday () -. limit in
      List.iter
        (fun c ->
          Metrics.incr_idle_closed t.metrics;
          close_conn t c)
        (Bqueue.evict t.queue ~f:(fun c -> c.last_active < cutoff))

let rec accept_loop t lsocks =
  if not (Atomic.get t.stop) then begin
    (* The timeout is the shutdown-latency bound: signal handlers only
       set the flag; this loop observes it within 0.2 s. *)
    (match Unix.select lsocks [] [] 0.2 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | ready, _, _ -> List.iter (accept_one t) ready);
    sweep_queued t;
    accept_loop t lsocks
  end

(* Recovery (torn tails, quarantine, rotation duplicates) lives in
   {!Seglog}; the server just opens the store and reports the count. *)
let open_journal (cfg : config) =
  match cfg.journal with
  | None -> (None, None, { Seglog.payloads = []; sealed = 0; warnings = [] })
  | Some path ->
      (* Compaction runs strictly before the journal opens: it only
         rewrites sealed segments, and the open below re-scans whatever
         it produced. *)
      let compaction =
        if cfg.journal_compact then
          Seglog.compact ?chaos:cfg.chaos_fs ~point:journal_point ~path
            ~header:journal_header ()
        else None
      in
      let log, recovery =
        Seglog.open_ ?chaos:cfg.chaos_fs ?rotate_bytes:cfg.journal_rotate
          ~point:journal_point ~path ~header:journal_header ()
      in
      (Some log, compaction, recovery)

let say cfg fmt =
  Printf.ksprintf
    (fun line ->
      if not cfg.quiet then begin
        print_string line;
        print_newline ();
        flush stdout
      end)
    fmt

let parse_listen spec =
  let bad () =
    invalid_arg (Printf.sprintf "serve: --listen %S is not HOST:PORT" spec)
  in
  match String.rindex_opt spec ':' with
  | None -> bad ()
  | Some i -> (
      let host = String.sub spec 0 i in
      let port = String.sub spec (i + 1) (String.length spec - i - 1) in
      match int_of_string_opt port with
      | Some p when p >= 0 && p <= 65535 -> (host, p)
      | _ -> bad ())

let resolve_host host =
  if String.equal host "" then Unix.inet_addr_any
  else
    try Unix.inet_addr_of_string host
    with Failure _ -> (
      try (Unix.gethostbyname host).Unix.h_addr_list.(0)
      with Not_found ->
        invalid_arg (Printf.sprintf "serve: cannot resolve host %S" host))

let validate (cfg : config) =
  if cfg.workers < 1 then invalid_arg "Server: workers < 1";
  if cfg.batch < 1 then invalid_arg "Server: batch < 1";
  if cfg.max_sessions < 1 then invalid_arg "Server: max-sessions < 1";
  (match cfg.max_conns with
  | Some m when m < 1 -> invalid_arg "Server: max-conns < 1"
  | _ -> ());
  match cfg.idle_timeout with
  | Some s when s <= 0.0 -> invalid_arg "Server: idle-timeout <= 0"
  | _ -> ()

(* Bind every listener and build the shared state; raises on a socket
   or journal error (callers decide between exit code 1 and a bubbled
   exception). *)
let setup ~stop cfg =
  validate cfg;
  let cache =
    Experiments.Strategy.Cache.create ?max_tables:cfg.max_tables
      ?max_bytes:cfg.max_bytes ()
  in
  let handler =
    Handler.create ?budget:cfg.budget ~slow:cfg.slow ?chaos:cfg.chaos ~cache ()
  in
  let journal, compaction, recovery = open_journal cfg in
  let t =
    {
      cfg;
      handler;
      metrics = Metrics.create ();
      sessions = Session.create ~capacity:cfg.max_sessions;
      queue = Bqueue.create ~capacity:cfg.queue_capacity;
      active = Atomic.make 0;
      journal;
      journal_lock = Mutex.create ();
      stop;
    }
  in
  (* The daemon owns its socket path: a stale file left by a SIGKILLed
     predecessor would make bind fail, so clear it first. *)
  if Sys.file_exists cfg.socket_path then Unix.unlink cfg.socket_path;
  let lsock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lsock (Unix.ADDR_UNIX cfg.socket_path);
  Unix.listen lsock 64;
  let tcp =
    match cfg.listen with
    | None -> None
    | Some spec ->
        let host, port = parse_listen spec in
        let addr = resolve_host host in
        let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt s Unix.SO_REUSEADDR true;
        (try
           Unix.bind s (Unix.ADDR_INET (addr, port));
           Unix.listen s 64
         with e ->
           (try Unix.close s with Unix.Unix_error _ -> ());
           (try Unix.close lsock with Unix.Unix_error _ -> ());
           raise e);
        let bound_port =
          match Unix.getsockname s with
          | Unix.ADDR_INET (_, p) -> p
          | _ -> port
        in
        let shown = if String.equal host "" then "0.0.0.0" else host in
        Some (s, shown, bound_port)
  in
  (match cfg.journal with
  | Some path ->
      (match compaction with
      | Some c ->
          List.iter (say cfg "serve: journal %s: %s" path)
            c.Seglog.compact_warnings;
          say cfg "serve: journal %s compacted segments=%d kept=%d dropped=%d"
            path c.Seglog.segments_merged c.Seglog.records_kept
            c.Seglog.duplicates_dropped
      | None -> ());
      List.iter (say cfg "serve: journal %s: %s" path) recovery.Seglog.warnings;
      say cfg "serve: journal %s recovered=%d segments=%d" path
        (List.length recovery.Seglog.payloads)
        recovery.Seglog.sealed
  | None -> ());
  say cfg "serve: listening on %s workers=%d queue=%d" cfg.socket_path
    cfg.workers cfg.queue_capacity;
  (match tcp with
  | Some (_, host, port) -> say cfg "serve: listening on tcp %s:%d" host port
  | None -> ());
  (t, lsock, tcp)

type handle = {
  h_state : state;
  h_lsocks : Unix.file_descr list;
  h_tcp_port : int option;
  h_pool : Parallel.Pool.t;
  h_workers : Thread.t;
  h_accepter : Thread.t option;
}

let tcp_port h = h.h_tcp_port

let spawn_workers (t : state) =
  (* Worker loops live on pool domains; the dispatcher thread
     participates as the pool's calling worker, so [workers] loops
     run concurrently while the accept loop (and, under [run], signal
     delivery) stays on its own thread. *)
  let pool = Parallel.Pool.create ~domains:t.cfg.workers () in
  let workers =
    Thread.create
      (fun () ->
        Parallel.Pool.map pool
          ~f:(fun _ -> worker_loop t)
          (Array.init t.cfg.workers Fun.id))
      ()
  in
  (pool, workers)

(* Drain: no new admissions, finish everything already admitted, then
   make the journal durable before reporting. *)
let drain h =
  let t = h.h_state in
  List.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    h.h_lsocks;
  (try Unix.unlink t.cfg.socket_path with Unix.Unix_error _ | Sys_error _ -> ());
  Bqueue.close t.queue;
  ignore (Thread.join h.h_workers);
  Parallel.Pool.shutdown h.h_pool;
  (match t.journal with Some log -> Seglog.close log | None -> ());
  say t.cfg "serve: drained %s" (Metrics.summary t.metrics)

let start cfg =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let stop = Atomic.make false in
  let t, lsock, tcp = setup ~stop cfg in
  let lsocks = lsock :: (match tcp with Some (s, _, _) -> [ s ] | None -> []) in
  let pool, workers = spawn_workers t in
  let accepter = Thread.create (fun () -> accept_loop t lsocks) () in
  {
    h_state = t;
    h_lsocks = lsocks;
    h_tcp_port = (match tcp with Some (_, _, p) -> Some p | None -> None);
    h_pool = pool;
    h_workers = workers;
    h_accepter = Some accepter;
  }

let stop h =
  Atomic.set h.h_state.stop true;
  (match h.h_accepter with Some th -> Thread.join th | None -> ());
  drain h

let run cfg =
  (* A dead client mid-reply must be EPIPE, not a process kill. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let stop = Atomic.make false in
  let request_stop _ = Atomic.set stop true in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
  Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
  match setup ~stop cfg with
  | exception Unix.Unix_error (err, fn, _) ->
      Printf.eprintf "serve: cannot listen: %s (%s)\n%!"
        (Unix.error_message err) fn;
      1
  | exception Invalid_argument msg ->
      Printf.eprintf "%s\n%!" msg;
      1
  | t, lsock, tcp ->
      let lsocks =
        lsock :: (match tcp with Some (s, _, _) -> [ s ] | None -> [])
      in
      let pool, workers = spawn_workers t in
      let h =
        {
          h_state = t;
          h_lsocks = lsocks;
          h_tcp_port = (match tcp with Some (_, _, p) -> Some p | None -> None);
          h_pool = pool;
          h_workers = workers;
          h_accepter = None;
        }
      in
      accept_loop t lsocks;
      drain h;
      0
