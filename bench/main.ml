(* CI performance gates.

   Two gate groups, one per CI step:
   - [eval]: the DP table builds of the fig2 C sweep (cells/s), the
     k-indexed Section 6 table serve answers from and the k-free table
     the figures compile from, and the fig2 evaluation sweep through
     [Runner.run] (grid points/s);
   - [serve]: the policy daemon's request handler, cold against warm,
     then four socket modes against one live in-process daemon
     (warm queries/s each).

   A run takes [rounds] interleaved rounds of every workload in its
   group, and every gate reads the median of its per-round samples, so
   one slow round on a shared host cannot trip a gate. A trajectory gate
   fails when its median falls below 70% of the (lower) median of the
   committed entries (the [--baseline] files) with the same metric and
   mode; a ratio gate compares two workloads of the same round against
   a fixed bound. [--out FILE] records one entry per trajectory gate,
   to append to the matching bench/BENCH_*.json file.

   Usage: dune exec bench/main.exe -- eval|serve [--out FILE]
            [--baseline FILE]... *)

let rounds = 5

(* The lower median: the largest value that at least half of [samples]
   reach. For a run's five samples that is the middle one; over the
   committed entries it keeps a floor at a level that half of the
   recorded runs reached, so one fast new entry cannot lift it alone. *)
let median samples =
  let a = Array.of_list samples in
  Array.sort compare a;
  a.((Array.length a - 1) / 2)

(* A trajectory gate's floor comes from the committed entries that share
   its metric and mode; a ratio gate's floor is fixed. *)
type floor = Trajectory | Ratio of float

type gate = {
  metric : string;  (** the JSON key its median is recorded under *)
  mode : string;
  workload : string;
  floor : floor;
  samples : float list;  (** one per round, in round order *)
}

let sample ?(floor = Trajectory) ~metric ~mode ~workload value =
  { metric; mode; workload; floor; samples = [ value ] }

(* Every round yields the same gates in the same order; a run appends
   each round's sample to its gate. *)
let run_rounds round =
  let first = round () in
  List.fold_left
    (fun acc _ ->
      List.map2
        (fun g s -> { g with samples = g.samples @ s.samples })
        acc (round ()))
    first
    (List.init (rounds - 1) Fun.id)

let time f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

(* ------------------------------------------------------------------ *)
(* eval: DP table build and evaluation sweep                            *)

(* The five DP tables of the fig2 C sweep (lambda = 0.001, D = 0,
   T = 2000, unit quantum), built serially; [build] returns a table's
   cell count. *)
let fig2_tables ~mode ~workload build =
  let horizon = 2000.0 and quantum = 1.0 in
  Gc.compact ();
  let cells, elapsed =
    time (fun () ->
        List.fold_left
          (fun acc c ->
            acc
            + build ~params:(Fault.Params.paper ~lambda:0.001 ~c ~d:0.0)
                ~quantum ~horizon)
          0
          [ 10.0; 20.0; 40.0; 80.0; 160.0 ])
  in
  sample ~metric:"cells_per_sec" ~mode ~workload
    (float_of_int cells /. elapsed)

(* The k-indexed Section 6 table at the suggested_kmax cap: a cell is
   one (n, k, delta) state. *)
let dp_round () =
  fig2_tables ~mode:"dp" ~workload:"fig2 C sweep, T=2000, u=1, suggested_kmax"
    (fun ~params ~quantum ~horizon ->
      let dp =
        Core.Dp.build
          ~kmax:(Core.Dp.suggested_kmax ~params ~horizon)
          ~params ~quantum ~horizon ()
      in
      2 * Core.Dp.kmax dp * Core.Dp.horizon_quanta dp)

(* The k-free table (Core.Optimal): a cell is one (n, delta) state, so
   its cells/s is never comparable with the dp mode's. *)
let optimal_round () =
  fig2_tables ~mode:"optimal" ~workload:"fig2 C sweep, T=2000, u=1, k-free"
    (fun ~params ~quantum ~horizon ->
      2 * Core.Optimal.horizon_quanta
            (Core.Optimal.build ~params ~quantum ~horizon ()))

(* fig2 at a fixed reduced scale through the registry, table cache and
   streaming evaluator, with a fresh cache so every round pays its
   table builds. *)
let eval_round () =
  let spec =
    match Experiments.Figures.find "fig2" with
    | Some spec -> Experiments.Figures.scale ~n_traces:200 ~t_step:200.0 spec
    | None -> failwith "fig2 spec missing"
  in
  let result, elapsed =
    time (fun () ->
        let cache = Experiments.Strategy.Cache.create () in
        Parallel.Pool.with_pool (fun pool ->
            Experiments.Runner.run ~pool ~cache spec))
  in
  let points =
    List.fold_left
      (fun acc (cv : Experiments.Runner.curve) ->
        acc + Array.length cv.Experiments.Runner.points)
      0 result.Experiments.Runner.curves
  in
  sample ~metric:"points_per_sec" ~mode:"eval"
    ~workload:"fig2, 200 traces, t-step 200, fresh cache"
    (float_of_int points /. elapsed)

(* ------------------------------------------------------------------ *)
(* serve: handler cold/warm and four socket modes                       *)

let percentile sorted p =
  let n = Array.length sorted in
  sorted.(min (n - 1) (int_of_float (Float.round (p *. float_of_int (n - 1)))))

let platforms = 32
let warm_rounds = 8
let clients = 4
let flight = 16

(* 32 distinct platforms: the C sweep spread the paper's figures use,
   each hashing to its own cache key. *)
let platform i =
  {
    Serve.Protocol.plat_params =
      Fault.Params.paper ~lambda:0.001 ~c:(10.0 +. (5.0 *. float_of_int i))
        ~d:0.0;
    plat_horizon = 500.0;
    plat_quantum = 1.0;
  }

let query i =
  let p = platform i in
  Serve.Protocol.Query
    {
      Serve.Protocol.params = p.Serve.Protocol.plat_params;
      horizon = p.Serve.Protocol.plat_horizon;
      quantum = p.Serve.Protocol.plat_quantum;
      tleft = 500.0;
      kleft = None;
      recovering = false;
    }

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "bench: %s\n" msg;
      exit 1)
    fmt

let expect_answer = function
  | Serve.Protocol.Answer _ -> ()
  | r -> fail "query failed: %s" (Serve.Protocol.render_response r)

let handshake conn ~binary =
  match Serve.Client.handshake conn ~binary with
  | Ok true -> ()
  | Ok false when not binary -> ()
  | Ok false -> fail "server refused the binary hello"
  | Error msg -> fail "handshake failed: %s" msg

(* The daemon's request brain (the code path a worker runs per query,
   minus the socket) with its own cache, so the cold pass really builds
   every table. The cache's reason to exist is the ratio gate: warm p99
   at least 10x better than cold p99. *)
let handler_round () =
  let handler =
    Serve.Handler.create ~cache:(Experiments.Strategy.Cache.create ()) ()
  in
  let timed req =
    let resp, dt = time (fun () -> Serve.Handler.handle handler req) in
    expect_answer resp;
    dt
  in
  let cold = Array.init platforms (fun i -> timed (query i)) in
  let warm =
    Array.init (warm_rounds * platforms) (fun j ->
        timed (query (j mod platforms)))
  in
  let warm_qps =
    float_of_int (Array.length warm) /. Array.fold_left ( +. ) 0.0 warm
  in
  Array.sort compare cold;
  Array.sort compare warm;
  let workload =
    Printf.sprintf "handler queries, %d platforms, T=500, u=1, %d warm rounds"
      platforms warm_rounds
  in
  [
    sample ~metric:"warm_qps" ~mode:"handler" ~workload warm_qps;
    sample ~floor:(Ratio 10.0) ~metric:"p99_speedup" ~mode:"handler cold/warm"
      ~workload (percentile cold 0.99 /. percentile warm 0.99);
  ]

(* One persistent connection, one round trip per query. *)
let sequential_qps ~socket ~binary ~rounds =
  let conn = Serve.Client.connect ~socket in
  Fun.protect
    ~finally:(fun () -> Serve.Client.close conn)
    (fun () ->
      handshake conn ~binary;
      let n = rounds * platforms in
      let (), elapsed =
        time (fun () ->
            for j = 0 to n - 1 do
              match Serve.Client.request conn (query (j mod platforms)) with
              | Ok resp -> expect_answer resp
              | Error msg -> fail "request failed: %s" msg
            done)
      in
      float_of_int n /. elapsed)

(* [clients] binary TCP connections, each with one session per platform,
   queries pipelined [flight] at a time so the daemon's worker rounds
   hold full batches. *)
let batched_qps ~socket =
  let per_client = warm_rounds * platforms in
  let run_client () =
    let conn = Serve.Client.connect ~socket in
    Fun.protect
      ~finally:(fun () -> Serve.Client.close conn)
      (fun () ->
        handshake conn ~binary:true;
        let sids =
          Array.init platforms (fun i ->
              match
                Serve.Client.request conn
                  (Serve.Protocol.Session_open (platform i))
              with
              | Ok (Serve.Protocol.Session sid) -> sid
              | Ok r ->
                  fail "session-open answered %s"
                    (Serve.Protocol.render_response r)
              | Error msg -> fail "session-open failed: %s" msg)
        in
        let sent = ref 0 in
        while !sent < per_client do
          let k = min flight (per_client - !sent) in
          let base = !sent in
          Serve.Wire.send_many conn
            (List.init k (fun j ->
                 Serve.Protocol.request_to_binary
                   (Serve.Protocol.Session_query
                      {
                        Serve.Protocol.sid = sids.((base + j) mod platforms);
                        sq_tleft = 500.0;
                        sq_kleft = None;
                        sq_recovering = false;
                      })));
          for _ = 1 to k do
            match Serve.Wire.recv conn with
            | Ok payload -> (
                match Serve.Protocol.response_of_binary payload with
                | Ok resp -> expect_answer resp
                | Error msg -> fail "bad batched response: %s" msg)
            | Error e ->
                fail "batched recv failed: %s" (Serve.Wire.error_message e)
          done;
          sent := !sent + k
        done)
  in
  let (), elapsed =
    time (fun () ->
        List.iter Thread.join
          (List.init clients (fun _ -> Thread.create run_client ())))
  in
  float_of_int (clients * per_client) /. elapsed

let socket_round ~unix ~tcp () =
  let mode name ?(extra = "") qps =
    sample ~metric:"warm_qps" ~mode:name
      ~workload:
        (Printf.sprintf "%s queries, %d platforms, T=500, u=1, %d warm rounds%s"
           name platforms warm_rounds extra)
      qps
  in
  let sequential socket ~binary =
    sequential_qps ~socket ~binary ~rounds:warm_rounds
  in
  let unix_text = sequential unix ~binary:false in
  let tcp_text = sequential tcp ~binary:false in
  let tcp_binary = sequential tcp ~binary:true in
  let batched = batched_qps ~socket:tcp in
  [
    mode "unix-text" unix_text;
    mode "tcp-text" tcp_text;
    mode "tcp-binary" tcp_binary;
    mode "tcp-binary-batched"
      ~extra:(Printf.sprintf ", %d clients, flight %d" clients flight)
      batched;
    sample ~floor:(Ratio 2.0) ~metric:"qps_ratio"
      ~mode:"tcp-binary-batched/unix-text" ~workload:"same round"
      (batched /. unix_text);
  ]

(* One live daemon serves every round: unix and TCP listeners, batching
   on, an ephemeral TCP port resolved after start. *)
let serve_gates () =
  let unix =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "fixedlen-bench-%d.sock" (Unix.getpid ()))
  in
  if Sys.file_exists unix then Sys.remove unix;
  let handle =
    Serve.Server.start
      {
        Serve.Server.socket_path = unix;
        listen = Some "127.0.0.1:0";
        workers = 2;
        queue_capacity = 64;
        batch = clients;
        max_conns = None;
        idle_timeout = None;
        max_sessions = 1024;
        budget = None;
        slow = 0.0;
        journal = None;
        journal_rotate = None;
        journal_compact = false;
        chaos = None;
        chaos_fs = None;
        max_tables = None;
        max_bytes = None;
        quiet = true;
      }
  in
  Fun.protect
    ~finally:(fun () -> Serve.Server.stop handle)
    (fun () ->
      let tcp =
        match Serve.Server.tcp_port handle with
        | Some port -> Printf.sprintf "127.0.0.1:%d" port
        | None -> fail "daemon bound no TCP port"
      in
      (* Untimed cold pass: the daemon builds every table once, so the
         socket modes measure warm serving like the handler rounds. *)
      ignore (sequential_qps ~socket:unix ~binary:false ~rounds:1);
      run_rounds (fun () ->
          let handler = handler_round () in
          handler @ socket_round ~unix ~tcp ()))

(* ------------------------------------------------------------------ *)
(* Trajectory files                                                     *)

(* The committed trajectories are JSON arrays of objects whose values
   are numbers, arrays of numbers, or strings without escapes; this
   reads that subset. *)
type json =
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

let parse_json text =
  let n = String.length text and pos = ref 0 in
  let error () = failwith (Printf.sprintf "malformed JSON at byte %d" !pos) in
  let skip () =
    while !pos < n && String.contains " \t\r\n" text.[!pos] do incr pos done
  in
  let peek () = skip (); if !pos < n then text.[!pos] else error () in
  let eat c = if peek () = c then incr pos else error () in
  let token stops =
    let start = !pos in
    while !pos < n && not (String.contains stops text.[!pos]) do incr pos done;
    String.sub text start (!pos - start)
  in
  let str () = eat '"'; let s = token "\"" in eat '"'; s in
  let rec value () =
    match peek () with
    | '{' ->
        incr pos;
        Obj (items '}' (fun () -> let key = str () in eat ':'; (key, value ())))
    | '[' -> incr pos; Arr (items ']' value)
    | '"' -> Str (str ())
    | _ -> (
        match float_of_string_opt (token ",]} \t\r\n") with
        | Some v -> Num v
        | None -> error ())
  and items : 'a. char -> (unit -> 'a) -> 'a list =
   fun close item ->
    if peek () = close then (incr pos; [])
    else
      let first = item () in
      if peek () = ',' then (incr pos; first :: items close item)
      else (eat close; [ first ])
  in
  let v = value () in
  skip ();
  if !pos < n then error ();
  v

let entries path =
  match parse_json (In_channel.with_open_bin path In_channel.input_all) with
  | Arr items -> List.filter_map (function Obj o -> Some o | _ -> None) items
  | _ -> failwith (path ^ ": not a JSON array")
  | exception Failure msg -> failwith (path ^ ": " ^ msg)

(* The mode an entry counts under for [metric]. Entries older than the
   "mode" field count by the keys they carry: DP entries only when
   serial ("jobs" absent or 1, the row-parallel kernel is gone), serve
   entries as handler measurements. *)
let entry_mode entry metric =
  match (List.assoc_opt "mode" entry, metric) with
  | Some (Str mode), _ -> Some mode
  | Some _, _ -> None
  | None, "points_per_sec" -> Some "eval"
  | None, "cells_per_sec" -> (
      match List.assoc_opt "jobs" entry with
      | None | Some (Num 1.0) -> Some "dp"
      | Some _ -> None)
  | None, "warm_qps" -> Some "handler"
  | None, _ -> None

let committed entries g =
  List.filter_map
    (fun entry ->
      match List.assoc_opt g.metric entry with
      | Some (Num v) when entry_mode entry g.metric = Some g.mode -> Some v
      | _ -> None)
    entries

let floats samples =
  String.concat ", " (List.map (Printf.sprintf "%.2f") samples)

let to_json g =
  Printf.sprintf
    "  {\n\
    \    \"mode\": %S,\n\
    \    \"workload\": %S,\n\
    \    %S: %.2f,\n\
    \    \"samples\": [%s]\n\
    \  }"
    g.mode g.workload g.metric (median g.samples) (floats g.samples)

(* ------------------------------------------------------------------ *)
(* Gate check                                                           *)

(* Prints every gate; true when all hold. Without [--baseline] the
   trajectory gates only report (the run that records a new entry);
   with one, a trajectory gate that finds no committed peer fails. *)
let check ~gated ~entries gates =
  List.fold_left
    (fun ok g ->
      let m = median g.samples in
      let floor, basis =
        match (g.floor, committed entries g) with
        | Ratio bound, _ -> (Some bound, "fixed bound")
        | Trajectory, [] when gated -> (Some infinity, "no committed peer")
        | Trajectory, [] -> (None, "")
        | Trajectory, vs ->
            ( Some (0.7 *. median vs),
              Printf.sprintf "70%% of the median of %d committed"
                (List.length vs) )
      in
      let holds = match floor with Some f -> m >= f | None -> true in
      Printf.printf "%s %s (%s): median %.2f of [%s]; %s\n"
        (if holds then "ok  " else "FAIL")
        g.metric g.mode m (floats g.samples)
        (match floor with
        | Some f -> Printf.sprintf "floor %.2f, %s" f basis
        | None -> "not gated");
      ok && holds)
    true gates

let run group out baselines =
  let entries = List.concat_map entries baselines in
  let gates =
    match group with
    | `Eval ->
        run_rounds (fun () ->
            let dp = dp_round () in
            let optimal = optimal_round () in
            [ dp; optimal; eval_round () ])
    | `Serve -> serve_gates ()
  in
  Option.iter
    (fun path ->
      let recorded = List.filter (fun g -> g.floor = Trajectory) gates in
      Out_channel.with_open_bin path (fun oc ->
          Printf.fprintf oc "[\n%s\n]\n"
            (String.concat ",\n" (List.map to_json recorded))))
    out;
  if check ~gated:(baselines <> []) ~entries gates then 0 else 1

let () =
  let open Cmdliner in
  let group =
    let groups = [ ("eval", `Eval); ("serve", `Serve) ] in
    Arg.(required & pos 0 (some (enum groups)) None & info [] ~docv:"GROUP"
           ~doc:"$(b,eval) (DP table builds, evaluation sweep) or $(b,serve) \
                 (request handler, socket modes).")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE"
           ~doc:"Write one entry per trajectory gate to $(docv), a JSON array.")
  in
  let baselines =
    Arg.(value & opt_all file [] & info [ "baseline" ] ~docv:"FILE"
           ~doc:"A committed trajectory; repeatable.")
  in
  let cmd =
    Cmd.v
      (Cmd.info "bench" ~doc:"CI performance gates on medians of 5 rounds.")
      Term.(const run $ group $ out $ baselines)
  in
  exit
    (try Cmd.eval' ~catch:false cmd
     with Failure msg ->
       prerr_endline ("bench: " ^ msg);
       1)
