(* The serve-mixed workload: a `fixedlen serve` child process driven by
   one single-threaded load generator over two connections — a binary
   TCP connection carrying session queries and a text Unix-socket
   connection carrying full queries.

   Traffic: a Zipf-skewed hot set of platforms x horizons (the shorter
   horizons are answered by prefix views of the full-horizon tables)
   that fits the daemon's cache bound and is warmed during set-up, plus
   a seeded cold tail of never-seen platforms whose queries build a
   table. A fifth of the queries are re-plans after a failure, some
   with a checkpoint budget [kleft].

   Phase 1 is an open loop: Poisson arrivals at a fixed offered rate,
   each request timed from its scheduled send time. Phase 2 is a closed
   loop that keeps a window of hot queries in flight on both
   connections. Every reply is checked, after the timed window, for
   bit-equality with an in-process Serve.Handler on a private cache. *)

open Serve

let hot_platforms = 12
let horizons = [| 1000.0; 750.0; 500.0 |]
let hot_keys = hot_platforms * Array.length horizons
let cache_tables = hot_keys + 12
let workers = 2
let batch = 1
let cold_frac = 0.02
let session_frac = 0.6
let recover_frac = 0.2
let zipf_s = 1.1
let cold_horizon = 400.0
let window = 128
(* The open loop's Poisson arrival rate: about half of the mixed
   traffic's saturation. *)
let offered_qps = 5000.0
let max_inflight = 256
let rounds = 10
let closed_items = 8192

type item = {
  conn : int;  (** 0 = binary TCP, session query; 1 = text Unix, full query *)
  query : Protocol.query;  (** the resolved full query, for the oracle *)
  key : int;  (** hot key index, or -1 for a cold-tail platform *)
  payload : string;  (** the request as sent (set once sids are known) *)
}

let platform_of_key plats k =
  let p = plats.(k / Array.length horizons) in
  {
    Protocol.plat_params = p;
    plat_horizon = horizons.(k mod Array.length horizons);
    plat_quantum = 1.0;
  }

let dist_of (p : Fault.Params.t) = Fault.Trace.Exponential { rate = p.Fault.Params.lambda }

(* ------------------------------------------------------------------ *)
(* The seeded request stream *)

type traffic = {
  rng : Random.State.t;
  plats : Fault.Params.t array;
  zipf_cdf : float array;  (** over hot keys, in a seeded rank order *)
  rank : int array;
  mutable cold_next : int;
}

let traffic ~seed =
  let rng = Random.State.make [| 0x5e7e; seed |] in
  (* The hot platforms are the same at every seed, so set-up builds the
     same tables; the seed ranks them and draws the stream. *)
  let plats =
    Array.init hot_platforms (fun i ->
        Fault.Params.paper
          ~lambda:(0.0005 +. (0.000125 *. float_of_int i))
          ~c:(float_of_int (5 + (5 * (i * 5 mod hot_platforms))))
          ~d:0.0)
  in
  let w = Array.init hot_keys (fun r -> 1.0 /. (float_of_int (r + 1) ** zipf_s)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  let zipf_cdf = Array.map (fun x -> acc := !acc +. (x /. total); !acc) w in
  let rank = Array.init hot_keys Fun.id in
  for i = hot_keys - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = rank.(i) in
    rank.(i) <- rank.(j);
    rank.(j) <- t
  done;
  { rng; plats; zipf_cdf; rank; cold_next = 0 }

let cold_platform tr =
  (* The k-th cold platform: a rate stepped by the golden ratio (never
     repeating, never on the hot set's grid) and a cost from a short
     cycle. The sequence is the same at every seed, so the tail's build
     work does not depend on it; the seed decides where it lands. *)
  tr.cold_next <- tr.cold_next + 1;
  let k = float_of_int tr.cold_next in
  Fault.Params.paper
    ~lambda:(0.0005 +. (0.0015 *. Float.rem (k *. 0.6180339887498949) 1.0))
    ~c:(float_of_int (20 + (5 * (tr.cold_next mod 8))))
    ~d:0.0

let hot_key tr =
  let u = Random.State.float tr.rng 1.0 in
  let rec find i = if i >= hot_keys - 1 || tr.zipf_cdf.(i) >= u then i else find (i + 1) in
  tr.rank.(find 0)

let query_of tr (plat : Protocol.platform) =
  let h = plat.Protocol.plat_horizon in
  let recovering = Random.State.float tr.rng 1.0 < recover_frac in
  {
    Protocol.params = plat.Protocol.plat_params;
    horizon = h;
    quantum = plat.Protocol.plat_quantum;
    tleft = Float.round (h *. (0.1 +. Random.State.float tr.rng 0.9) *. 10.0) /. 10.0;
    kleft =
      (if recovering && Random.State.bool tr.rng then Some (1 + Random.State.int tr.rng 6)
       else None);
    recovering;
  }

let encode ~sids it =
  if it.conn = 0 then
    Protocol.request_to_binary
      (Protocol.Session_query
         {
           Protocol.sid = sids.(it.key);
           sq_tleft = it.query.Protocol.tleft;
           sq_kleft = it.query.Protocol.kleft;
           sq_recovering = it.query.Protocol.recovering;
         })
  else Protocol.request_to_string (Protocol.Query it.query)

let next_item tr ~sids ~cold_ok =
  let it =
    if cold_ok && Random.State.float tr.rng 1.0 < cold_frac then
      let p = cold_platform tr in
      let plat = { Protocol.plat_params = p; plat_horizon = cold_horizon; plat_quantum = 1.0 } in
      { conn = 1; query = query_of tr plat; key = -1; payload = "" }
    else
      let key = hot_key tr in
      let conn = if Random.State.float tr.rng 1.0 < session_frac then 0 else 1 in
      { conn; query = query_of tr (platform_of_key tr.plats key); key; payload = "" }
  in
  { it with payload = encode ~sids it }

(* ------------------------------------------------------------------ *)
(* The daemon *)

type daemon = {
  pid : int;
  out : in_channel;
  tcp : string;
  sock : string;
}

let spawn ~fixedlen ~work_dir =
  let sock = Filename.concat work_dir "d.sock" in
  (try Sys.remove sock with Sys_error _ -> ());
  let args =
    [|
      fixedlen; "serve"; "--socket"; sock; "--listen"; "127.0.0.1:0";
      "--workers"; string_of_int workers; "--batch"; string_of_int batch;
      "--cache-tables"; string_of_int cache_tables;
    |]
  in
  let r, w = Unix.pipe ~cloexec:true () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let pid = Unix.create_process fixedlen args devnull w Unix.stderr in
  Unix.close w;
  Unix.close devnull;
  let out = Unix.in_channel_of_descr r in
  let rec wait_tcp () =
    match input_line out with
    | exception End_of_file -> None
    | line -> (
        match Scanf.sscanf line "serve: listening on tcp %s@:%d" (fun h p -> (h, p)) with
        | h, p -> Some (Printf.sprintf "%s:%d" h p)
        | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> wait_tcp ())
  in
  match wait_tcp () with
  | Some tcp -> { pid; out; tcp; sock }
  | None ->
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      failwith "perfbench: the serve daemon exited before listening"

(* SIGTERM, then the drain summary line; the daemon must exit 0. *)
let stop d =
  Unix.kill d.pid Sys.sigterm;
  let rec drained acc =
    match input_line d.out with
    | exception End_of_file -> acc
    | line when String.starts_with ~prefix:"serve: drained " line -> drained (Some line)
    | _ -> drained acc
  in
  let line = drained None in
  close_in_noerr d.out;
  let _, status = Unix.waitpid [] d.pid in
  (line, status = Unix.WEXITED 0)

let kill_hard d =
  (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ());
  close_in_noerr d.out

let summary_field line name =
  let key = name ^ "=" in
  String.split_on_char ' ' line
  |> List.find_map (fun tok ->
         if String.starts_with ~prefix:key tok then
           int_of_string_opt
             (String.sub tok (String.length key) (String.length tok - String.length key))
         else None)
  |> Option.value ~default:0

(* ------------------------------------------------------------------ *)
(* Set-up: spawn, connect both connections, open one session per hot
   key, and warm every hot key (full horizons first, so the shorter
   horizons materialise as prefix views). *)

type env = {
  daemon : daemon;
  conns : Wire.conn array;
  sids : int array;
  tr : traffic;
  checks : Common.checks;
}

let expect checks what = function
  | Ok (Protocol.Answer _) | Ok (Protocol.Session _) -> Common.check checks true "%s" what
  | Ok r -> Common.check checks false "%s answered %s" what (Protocol.render_response r)
  | Error e -> Common.check checks false "%s failed: %s" what e

let setup ~fixedlen ~work_dir ~seed checks =
  let daemon = spawn ~fixedlen ~work_dir in
  try
    let bin = Client.connect ~socket:daemon.tcp in
    (match Client.handshake bin ~binary:true with
    | Ok true -> ()
    | _ -> failwith "perfbench: binary hello refused");
    let text = Client.connect ~socket:daemon.sock in
    let tr = traffic ~seed in
    let sids =
      Array.init hot_keys (fun k ->
          match Client.request bin (Protocol.Session_open (platform_of_key tr.plats k)) with
          | Ok (Protocol.Session sid) -> sid
          | r ->
              expect checks "session-open" r;
              0)
    in
    let order =
      List.sort
        (fun a b ->
          compare (a mod Array.length horizons, a) (b mod Array.length horizons, b))
        (List.init hot_keys Fun.id)
    in
    List.iter
      (fun k ->
        let plat = platform_of_key tr.plats k in
        expect checks "warm query"
          (Client.request text
             (Protocol.Query
                {
                  Protocol.params = plat.Protocol.plat_params;
                  horizon = plat.Protocol.plat_horizon;
                  quantum = plat.Protocol.plat_quantum;
                  tleft = plat.Protocol.plat_horizon;
                  kleft = None;
                  recovering = false;
                })))
      order;
    { daemon; conns = [| bin; text |]; sids; tr; checks }
  with e ->
    kill_hard daemon;
    raise e

let teardown env =
  Array.iter Client.close env.conns;
  stop env.daemon

(* ------------------------------------------------------------------ *)
(* The load generator *)

type sample = {
  id : int;
  item : item;
  sched : float;
  mutable reply : string;
  mutable done_at : float;
}

let recv_ready env ~timeout =
  let buffered =
    List.filter (fun i -> Wire.buffered env.conns.(i)) [ 0; 1 ]
  in
  if buffered <> [] then buffered
  else
    match
      Unix.select (Array.to_list (Array.map Wire.fd env.conns)) [] [] (Float.max 0.0 timeout)
    with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
    | fds, _, _ ->
        List.filter (fun i -> List.mem (Wire.fd env.conns.(i)) fds) [ 0; 1 ]

(* Read every reply already available on connection [i], completing
   the oldest in-flight requests in order. *)
let drain_conn env fifo i ~on_reply =
  let rec go () =
    match Wire.recv env.conns.(i) with
    | Error e -> failwith (Printf.sprintf "connection %d: %s" i (Wire.error_message e))
    | Ok payload ->
        let t = Common.now () in
        (match Queue.take_opt fifo.(i) with
        | Some x -> on_reply i x payload t
        | None -> Common.check env.checks false "unsolicited reply on connection %d" i);
        if Wire.buffered env.conns.(i) then go ()
  in
  go ()

let drain_all env fifo ~on_reply ~deadline =
  Spans.span "gen.drain" @@ fun () ->
  while
    (not (Queue.is_empty fifo.(0) && Queue.is_empty fifo.(1))) && Common.now () < deadline
  do
    List.iter
      (fun i -> drain_conn env fifo i ~on_reply)
      (recv_ready env ~timeout:(deadline -. Common.now ()))
  done

type open_result = {
  o_samples : sample list;
  o_late : float list;
  o_elapsed : float;
}

let open_loop env ~seconds =
  let fifo = [| Queue.create (); Queue.create () |] in
  let samples = ref [] and late = ref [] in
  let t0 = Common.now () +. 0.005 in
  let t_end = t0 +. seconds in
  let next = ref t0 and req = ref 0 in
  let on_reply _ s payload t =
    s.reply <- payload;
    s.done_at <- t;
    Spans.record ~req:s.id "gen.wait" ~start:s.sched ~stop:t
  in
  while !next < t_end do
    let now = Common.now () in
    if !next <= now then begin
      let it = next_item env.tr ~sids:env.sids ~cold_ok:true in
      (* Bounded in-flight requests: both sides block on full socket
         buffers otherwise. A backlog shows up as lateness. *)
      while Queue.length fifo.(it.conn) >= max_inflight do
        Spans.span "gen.recv" (fun () -> drain_conn env fifo it.conn ~on_reply)
      done;
      incr req;
      let s = { id = !req; item = it; sched = !next; reply = ""; done_at = 0.0 } in
      late := (Common.now () -. !next) :: !late;
      Spans.span ~req:!req "gen.send" (fun () -> Wire.send env.conns.(it.conn) it.payload);
      Queue.push s fifo.(it.conn);
      samples := s :: !samples;
      next := !next +. (-.Float.log (1.0 -. Random.State.float env.tr.rng 1.0) /. offered_qps)
    end
    else begin
      let ready =
        Spans.span "gen.idle" (fun () -> recv_ready env ~timeout:(!next -. now))
      in
      List.iter (fun i -> Spans.span "gen.recv" (fun () -> drain_conn env fifo i ~on_reply)) ready
    end
  done;
  drain_all env fifo ~on_reply ~deadline:(Common.now () +. 30.0);
  { o_samples = !samples; o_late = !late; o_elapsed = Common.now () -. t0 }

(* Closed loop: [window] hot queries in flight per connection, each
   reply refilling its connection; counts replies inside [seconds]. The
   queries cycle through [items]: the first reply to each is kept for
   the oracle, every later one must repeat it byte for byte. *)
let closed_loop env ~items ~seconds =
  let fifo = [| Queue.create (); Queue.create () |] in
  let first = Array.map (fun a -> Array.make (Array.length a) "") items in
  let cursor = [| 0; 0 |] and answered = ref 0 in
  let t0 = Common.now () in
  let t_end = t0 +. seconds in
  let send_n i n =
    if n > 0 then begin
      let batch =
        List.init n (fun _ ->
            let k = cursor.(i) mod Array.length items.(i) in
            cursor.(i) <- cursor.(i) + 1;
            Queue.push k fifo.(i);
            items.(i).(k).payload)
      in
      Spans.span "gen.send" (fun () -> Wire.send_many env.conns.(i) batch)
    end
  in
  send_n 0 window;
  send_n 1 window;
  let refill = [| 0; 0 |] in
  let on_reply i k payload t =
    if t <= t_end then incr answered;
    refill.(i) <- refill.(i) + 1;
    if first.(i).(k) = "" then first.(i).(k) <- payload
    else if String.equal first.(i).(k) payload then Common.check env.checks true "ok"
    else
      Common.check env.checks false "closed-loop reply changed for %s"
        (Protocol.request_to_string (Protocol.Query items.(i).(k).query))
  in
  while Common.now () < t_end do
    let ready = Spans.span "gen.idle" (fun () -> recv_ready env ~timeout:0.2) in
    List.iter
      (fun i ->
        Spans.span "gen.recv" (fun () -> drain_conn env fifo i ~on_reply);
        if Common.now () < t_end then send_n i refill.(i);
        refill.(i) <- 0)
      ready
  done;
  drain_all env fifo ~on_reply ~deadline:(Common.now () +. 30.0);
  let samples =
    List.concat_map
      (fun i ->
        List.filter_map
          (fun k ->
            if first.(i).(k) = "" then None
            else
              Some { id = 0; item = items.(i).(k); sched = 0.0; reply = first.(i).(k); done_at = 1.0 })
          (List.init (Array.length items.(i)) Fun.id))
      [ 0; 1 ]
  in
  (samples, float_of_int !answered /. seconds)

let closed_items_for env =
  let tr = { env.tr with rng = Random.State.copy env.tr.rng } in
  let pick conn =
    let rec go () =
      let it = next_item tr ~sids:env.sids ~cold_ok:false in
      if it.conn = conn then it else go ()
    in
    Array.init closed_items (fun _ -> go ())
  in
  [| pick 0; pick 1 |]

(* ------------------------------------------------------------------ *)
(* The oracle: an in-process handler on a private cache, off the clock *)

let oracle () = Handler.create ~cache:(Experiments.Strategy.Cache.create ()) ()

let expected handler memo it =
  let key = Protocol.request_to_binary (Protocol.Query it.query) in
  let resp =
    match Hashtbl.find_opt memo key with
    | Some r -> r
    | None ->
        let r = Handler.handle handler (Protocol.Query it.query) in
        Hashtbl.replace memo key r;
        r
  in
  if it.conn = 0 then Protocol.response_to_binary resp else Protocol.response_to_string resp

let check_replies env handler memo samples =
  List.iter
    (fun s ->
      let want = expected handler memo s.item in
      if s.done_at > 0.0 && String.equal s.reply want then Common.check env.checks true "ok"
      else
        Common.check env.checks false "reply %s differs from the oracle (%s) for %s"
        (if s.done_at > 0.0 then String.escaped s.reply else "missing")
        (String.escaped want)
        (Protocol.request_to_string (Protocol.Query s.item.query)))
    samples

(* ------------------------------------------------------------------ *)

let info =
  [
    ( "daemon_flags",
      Printf.sprintf "--workers %d --listen 127.0.0.1:0 --batch %d --cache-tables %d (no journal)"
        workers batch cache_tables );
    ("hot_keys", string_of_int hot_keys);
    ("window", string_of_int window);
    ("offered_qps", Printf.sprintf "%g" offered_qps);
  ]

let ms = ( *. ) 1e3

let latencies samples pred =
  List.filter_map
    (fun s -> if pred s.item then Some (s.done_at -. s.sched) else None)
    samples

let daemon_stats env =
  match Client.request env.conns.(1) Protocol.Stats with
  | Ok (Protocol.Stats_reply st) -> Some st
  | _ -> None

(* Phase 1 and phase 2 alternate on the same two connections, in
   [rounds] pairs of short windows, each with its steal share; a metric
   is the median over the rounds the host did not steal from (see
   Common.least_stolen). *)
type phases = {
  opens : (open_result * float) list;
  closed : sample list;
  qps : (float * float) list;
  items : item array array;
}

let run_phases env ~seconds =
  let items = closed_items_for env in
  let per = seconds /. float_of_int (2 * rounds) in
  let rs =
    List.init rounds (fun _ ->
        let o = Common.with_steal (fun () -> open_loop env ~seconds:per) in
        let (closed, qps), steal =
          Common.with_steal (fun () -> closed_loop env ~items ~seconds:per)
        in
        (o, closed, (qps, steal)))
  in
  {
    opens = List.map (fun (o, _, _) -> o) rs;
    closed = List.concat_map (fun (_, c, _) -> c) rs;
    qps = List.map (fun (_, _, q) -> q) rs;
    items;
  }

let open_samples ph = List.map (fun (o, _) -> o.o_samples) ph.opens
let closed_qps ph = Common.median (Common.least_stolen ph.qps)

let open_metrics ph =
  let is_hit it = it.key >= 0 in
  let round_p50 =
    List.map (fun (o, steal) -> (Common.median (latencies o.o_samples is_hit), steal)) ph.opens
  in
  let opens = List.map fst ph.opens in
  let samples = List.concat_map (fun o -> o.o_samples) opens in
  let hit = latencies samples is_hit in
  let miss = latencies samples (fun it -> not (is_hit it)) in
  let answered = List.length (List.filter (fun s -> s.done_at > 0.0) samples) in
  let elapsed = List.fold_left (fun a o -> a +. o.o_elapsed) 0.0 opens in
  [
    ("latency_p50_ms", ms (Common.median (Common.least_stolen round_p50)));
    ("gen.hit_p99_ms", ms (Common.quantile hit 0.99));
    ("gen.miss_p50_ms", ms (Common.median miss));
    ("gen.misses", float_of_int (List.length miss));
    ("gen.offered_qps", offered_qps);
    ("gen.achieved_qps", float_of_int answered /. elapsed);
    ("gen.late_p99_ms", ms (Common.quantile (List.concat_map (fun o -> o.o_late) opens) 0.99));
  ]

let check_all env samples =
  let handler = oracle () and memo = Hashtbl.create 4096 in
  List.iter (check_replies env handler memo) samples;
  handler

let run_untraced env ~seconds =
  let ph = run_phases env ~seconds in
  let rss = Common.peak_rss_mb env.daemon.pid in
  ignore (check_all env (ph.closed :: open_samples ph) : Handler.t);
  ("throughput_per_s", closed_qps ph) :: ("peak_rss_mb", rss) :: open_metrics ph

(* The in-process layer pass over the same seeded request stream. *)
let layer_pass env ~work_dir ~handler ~items =
  let hot = Array.append (Array.sub items.(0) 0 2000) (Array.sub items.(1) 0 2000) in
  let req_id = ref 0 in
  (* Handler hits (the oracle's cache is warm), then both codecs. *)
  Array.iter
    (fun it ->
      incr req_id;
      let req = Protocol.Query it.query in
      let resp =
        Spans.span ~req:!req_id "handler.hit" (fun () -> Handler.handle handler req)
      in
      Spans.span ~req:!req_id "protocol.binary" (fun () ->
          ignore (Protocol.request_of_binary (Protocol.request_to_binary req));
          ignore (Protocol.response_of_binary (Protocol.response_to_binary resp)));
      Spans.span ~req:!req_id "protocol.text" (fun () ->
          ignore (Protocol.request_of_string (Protocol.request_to_string req));
          ignore (Protocol.response_of_string (Protocol.response_to_string resp))))
    hot;
  (* Framing over a socketpair, one binary frame per request. *)
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let wa = Wire.of_fd ~mode:Wire.Binary a and wb = Wire.of_fd ~mode:Wire.Binary b in
  Array.iter
    (fun it ->
      let payload = Protocol.request_to_binary (Protocol.Query it.query) in
      Spans.span "wire.frame" (fun () ->
          Wire.send wa payload;
          match Wire.recv wb with
          | Ok p -> Common.check env.checks (String.equal p payload) "socketpair frame torn"
          | Error e -> Common.check env.checks false "socketpair: %s" (Wire.error_message e)))
    hot;
  Unix.close a;
  Unix.close b;
  (* Session resolution on a private table holding the hot set. *)
  let sessions = Session.create ~capacity:1024 in
  let sids = Array.init hot_keys (fun k -> Session.open_ sessions (platform_of_key env.tr.plats k)) in
  Array.iter
    (fun it ->
      Spans.span "session.resolve" (fun () ->
          ignore
            (Session.resolve sessions ~sid:sids.(it.key) ~tleft:it.query.Protocol.tleft
               ~recovering:it.query.Protocol.recovering)))
    hot;
  (* Batched answers, a window's worth per round. *)
  let queries = Array.map (fun it -> Ok (Protocol.Query it.query)) hot in
  for b = 0 to (Array.length hot / window) - 1 do
    let chunk = Array.to_list (Array.sub queries (b * window) window) in
    Spans.span "handler.batch" (fun () -> ignore (Handler.handle_batch handler chunk))
  done;
  (* Cache: lookups of resident tables, prefix-view materialisation on a
     fresh cache, direct DP builds and handler misses on cold platforms. *)
  let cache = Handler.cache handler in
  Array.iteri
    (fun k _ ->
      let plat = platform_of_key env.tr.plats k in
      for _ = 1 to 20 do
        Spans.span "cache.lookup" (fun () ->
            ignore
              (Experiments.Strategy.dp_table cache ~params:plat.Protocol.plat_params
                 ~horizon:plat.Protocol.plat_horizon ~quantum:1.0))
      done)
    sids;
  let fresh = Experiments.Strategy.Cache.create () in
  let dp1 = [ Experiments.Spec.Dynamic_programming { quantum = 1.0 } ] in
  Array.iter
    (fun p ->
      let dist = dist_of p in
      Spans.span "cache.build" (fun () ->
          Experiments.Strategy.ensure fresh ~params:p ~horizon:horizons.(0) ~dist dp1);
      Array.iteri
        (fun i h ->
          if i > 0 then
            Spans.span "cache.view" (fun () ->
                Experiments.Strategy.ensure fresh ~params:p ~horizon:h ~dist dp1))
        horizons)
    env.tr.plats;
  let cold = List.init 16 (fun _ -> cold_platform env.tr) in
  let cells = ref 0 and bytes = ref 0 in
  List.iter
    (fun params ->
      let t =
        Spans.span "dp.build" (fun () ->
            Core.Dp.build
              ~kmax:(Core.Dp.suggested_kmax ~params ~horizon:cold_horizon)
              ~params ~quantum:1.0 ~horizon:cold_horizon ())
      in
      cells := !cells + (2 * Core.Dp.kmax t * Core.Dp.horizon_quanta t);
      bytes := !bytes + Core.Dp.bytes t;
      let q =
        { Protocol.params; horizon = cold_horizon; quantum = 1.0; tleft = cold_horizon;
          kleft = None; recovering = false }
      in
      Spans.span "handler.miss" (fun () -> ignore (Handler.handle handler (Protocol.Query q))))
    cold;
  (* The journal append a durable daemon would pay per query. *)
  let path = Filename.concat work_dir "journal.log" in
  (try Sys.remove path with Sys_error _ -> ());
  let log, _ =
    Seglog.open_ ~point:"journal" ~path ~header:Server.journal_header ()
  in
  Array.iteri
    (fun i it ->
      if i < 200 then
        Spans.span "seglog.append" (fun () ->
            Seglog.append log (Protocol.request_to_string (Protocol.Query it.query))))
    hot;
  Seglog.close log;
  (try Sys.remove path with Sys_error _ -> ());
  (Array.length hot, List.length cold, !cells, !bytes)

let run_traced env ~seconds ~work_dir ~spans_path =
  (* Half the untraced run's window runs the rounds with the generator's
     spans on. The other half times the closed loop untraced, traced,
     traced, untraced, in groups, so a drift in the host's speed cancels
     out of the tracing overhead. *)
  let seconds = seconds /. 2.0 in
  Spans.enabled := true;
  let ph = run_phases env ~seconds in
  let groups = rounds / 2 in
  let closed traced =
    Spans.enabled := traced;
    closed_loop env ~items:ph.items ~seconds:(seconds /. float_of_int (4 * groups))
  in
  let pairs =
    List.init groups (fun _ ->
        let u0 = closed false in
        let t0 = closed true in
        let t1 = closed true in
        let u1 = closed false in
        ([ u0; u1 ], [ t0; t1 ]))
  in
  Spans.enabled := false;
  let qps_sum = List.fold_left (fun a (_, q) -> a +. q) 0.0 in
  let overhead =
    Common.median (List.map (fun (u, t) -> (qps_sum u /. qps_sum t) -. 1.0) pairs)
  in
  let stats = daemon_stats env in
  let handler =
    check_all env
      ((ph.closed :: open_samples ph)
      @ List.concat_map (fun (u, t) -> List.map fst (u @ t)) pairs)
  in
  Spans.enabled := true;
  let layer_lo = Common.now () in
  let hot_n, cold_n, cells, bytes = layer_pass env ~work_dir ~handler ~items:ph.items in
  let hi = Common.now () in
  Spans.enabled := false;
  let spans = Spans.all () in
  Spans.write_json spans_path spans;
  let hit_bin =
    latencies (List.concat (open_samples ph)) (fun it ->
        it.key >= 0 && it.conn = 0)
  in
  let us name = Spans.mean_us spans name in
  let total = Spans.total spans in
  let frame_us = us "wire.frame" and bin_us = us "protocol.binary" in
  let resolve_us = us "session.resolve" and hit_us = us "handler.hit" in
  let st f = match stats with Some s -> float_of_int (f s) | None -> 0.0 in
  let dp_s = total "dp.build" in
  open_metrics ph
  @ [
        ("dp.build_s", dp_s);
        ("dp.builds", float_of_int cold_n);
        ("dp.cells", float_of_int cells);
        ("dp.cells_per_s", if dp_s > 0.0 then float_of_int cells /. dp_s else 0.0);
        ("dp.bytes", float_of_int bytes);
        ("cache.builds", st (fun s -> s.Experiments.Strategy.Cache.s_builds));
        ("cache.hits", st (fun s -> s.Experiments.Strategy.Cache.s_hits));
        ("cache.evictions", st (fun s -> s.Experiments.Strategy.Cache.s_evictions));
        ("cache.resident_bytes", st (fun s -> s.Experiments.Strategy.Cache.s_resident_bytes));
        ("cache.lookup_us", us "cache.lookup");
        ("cache.view_us", us "cache.view");
        ("protocol.binary_us", bin_us);
        ("protocol.text_us", us "protocol.text");
        ("wire.frame_us", frame_us);
        ("wire.frames", float_of_int (Spans.count spans "wire.frame"));
        ("session.resolve_us", resolve_us);
        ("handler.hit_us", hit_us);
        ("handler.miss_us", us "handler.miss");
        ("handler.batch_us", total "handler.batch" *. 1e6 /. float_of_int (max 1 hot_n));
        ( "server.residual_us",
          (1e6 *. Common.median hit_bin) -. (bin_us +. (2.0 *. frame_us) +. resolve_us +. hit_us) );
        ("seglog.append_us", us "seglog.append");
        ("throughput_per_s", closed_qps ph);
        ("trace_overhead_frac", overhead);
        (* Over the layer pass only: the generator's own spans tile its
           loop by construction, so they cannot show a missing layer. *)
        ("untraced_frac", Spans.uncovered_frac spans [ (layer_lo, hi) ]);
      ]
