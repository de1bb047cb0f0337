type t = {
  cache : Experiments.Strategy.Cache.t;
  budget : float;
  now : (unit -> float) option;
  slow : float;
  sleep : float -> unit;
  chaos : Robust.Chaos.t option;
  counter : int Atomic.t;
}

let create ?(budget = infinity) ?now ?(slow = 0.0) ?(sleep = Unix.sleepf)
    ?chaos ~cache () =
  if budget <= 0.0 then invalid_arg "Handler.create: budget <= 0";
  if slow < 0.0 then invalid_arg "Handler.create: slow < 0";
  { cache; budget; now; slow; sleep; chaos; counter = Atomic.make 0 }

let cache t = t.cache

let no_plan = { Protocol.next = 0.0; k = 0; work = 0.0 }

let answer dp q =
  let u = Core.Dp.quantum dp in
  let tq = Core.Dp.horizon_quanta dp in
  let kmax = Core.Dp.kmax dp in
  (* Same clamp as Dp.clamp_n: remaining time in whole quanta. *)
  let n = int_of_float (Float.floor ((q.Protocol.tleft /. u) +. 1e-9)) in
  let n = if n < 0 then 0 else min n tq in
  let state =
    if n = 0 then None
    else if not q.Protocol.recovering then
      (* Fresh plan: δ = 0, the precomputed best initial k. *)
      match Core.Dp.best_k dp ~n ~delta:false with
      | 0 -> None
      | k -> Some (k, false)
    else
      (* Re-plan after a failure: δ = 1, best m within the checkpoints
         the client still has — Equation (8)'s recursion, with kleft
         playing the k_remaining the simulation policy tracks. *)
      let cap =
        match q.Protocol.kleft with
        | None -> kmax
        | Some k -> min (max 1 k) kmax
      in
      match Core.Dp.arg_best_m dp ~n ~k:cap with
      | 0 -> None
      | m -> Some (m, true)
  in
  match state with
  | None -> Protocol.Answer no_plan
  | Some (k, delta) ->
      Protocol.Answer
        {
          Protocol.next =
            float_of_int (Core.Dp.first_checkpoint_q dp ~n ~k ~delta) *. u;
          k;
          work = Core.Dp.expected_work_q dp ~n ~k ~delta;
        }

(* One cache round trip: the k-indexed table, built on a miss. *)
let fetch_table t q =
  Result.map_error Experiments.Strategy.error_message
    (Experiments.Strategy.ensure_dp_table t.cache ~params:q.Protocol.params
       ~horizon:q.Protocol.horizon ~quantum:q.Protocol.quantum)

(* Per-query policy (budget, chaos, injected slowness) around a
   pluggable table fetch — [query] fetches straight from the cache,
   [handle_batch] memoizes the fetch across the batch. *)
let query_with t ~fetch q =
  let deadline =
    if t.budget = infinity then Robust.Deadline.unlimited
    else Robust.Deadline.start ?now:t.now ~budget:t.budget ()
  in
  let key = Atomic.fetch_and_add t.counter 1 in
  (match t.chaos with
  | Some chaos -> Robust.Chaos.inject chaos ~key ~attempt:0
  | None -> ());
  if t.slow > 0.0 then t.sleep t.slow;
  if Robust.Deadline.expired deadline then Protocol.Timeout
  else
    (* The build runs to completion even when it overruns the budget:
       the table stays cached, the client's retry will hit it. *)
    match fetch q with
    | Error msg -> Protocol.Failed msg
    | Ok dp ->
        if Robust.Deadline.expired deadline then Protocol.Timeout
        else answer dp q

let handle_with t ~fetch request =
  match request with
  | Protocol.Ping -> Protocol.Pong
  | Protocol.Stats ->
      Protocol.Stats_reply (Experiments.Strategy.Cache.stats t.cache)
  | Protocol.Session_open _ | Protocol.Session_query _
  | Protocol.Session_close _ ->
      (* Sessions are server state; a handler reached directly has
         none. The server resolves session requests into full queries
         before they get here. *)
      Protocol.Failed "session requests need the daemon"
  | Protocol.Query q -> (
      try query_with t ~fetch q with
      | Robust.Chaos.Injected msg -> Protocol.Failed ("injected: " ^ msg)
      | Invalid_argument msg | Failure msg -> Protocol.Failed msg)

let handle t request = handle_with t ~fetch:(fetch_table t) request

let handle_payload t payload =
  match Protocol.request_of_string payload with
  | Ok request -> handle t request
  | Error msg -> Protocol.Failed msg

(* Answer a batch sharing one cache round trip per distinct table: the
   first query against a (params, horizon, quantum) triple pays the
   ensure-and-lookup, its batchmates reuse the result without touching
   the cache lock. Triples match by the cache's own key equality, so a
   batch builds exactly the tables sequential handling would. Per-query
   policy (budget, chaos, slow) still runs per member, in order, so a
   batched timeout drill behaves exactly like a sequential one. *)
let handle_batch t requests =
  let module Cache = Experiments.Strategy.Cache in
  let memo = ref [] in
  let fetch q =
    let key =
      Cache.key ~params:q.Protocol.params ~horizon:q.Protocol.horizon
        (Cache.Dp { quantum = q.Protocol.quantum })
    in
    match List.find_opt (fun (k, _) -> Cache.equal_key k key) !memo with
    | Some (_, r) -> r
    | None ->
        let r = fetch_table t q in
        memo := (key, r) :: !memo;
        r
  in
  List.map
    (function
      | Error msg -> Protocol.Failed msg
      | Ok request -> handle_with t ~fetch request)
    requests
