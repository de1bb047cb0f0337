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

let no_plan = Protocol.Answer { Protocol.next = 0.0; k = 0; work = 0.0 }

(* The answer is the one of the k-indexed table built at the query's
   horizon with the suggested kmax, kmax(h): a fresh plan (δ = 0) takes
   the best k, a re-plan (δ = 1) the best m <= min (max 1 kleft) kmax(h)
   (Equation (8)'s recursion). The k-free table gives the same bits
   while that cap is not below the length of its plan. kmax(h) alone
   does not bind (it is about four times the Young/Daly count, and the
   plan's segments each span more than C), so a fresh plan comes from
   the k-free table, and only a re-plan whose kleft binds reads the
   slot's k-indexed table. *)
let answer t q opt =
  let u = Core.Optimal.quantum opt in
  let { Protocol.params; horizon; quantum; recovering = delta; _ } = q in
  let tq = Core.Tables.quanta_count ~who:"Handler" ~quantum ~horizon in
  (* Same clamp as Dp.clamp_n: remaining time in whole quanta. *)
  let n = int_of_float (Float.floor ((q.Protocol.tleft /. u) +. 1e-9)) in
  let n = if n < 0 then 0 else min n tq in
  let len = if n = 0 then 0 else Core.Optimal.plan_length opt ~n ~delta in
  let cap =
    if not delta then len
    else
      let kmax = Core.Dp.effective_kmax ~params ~quantum ~horizon in
      match q.Protocol.kleft with Some k -> min (max 1 k) kmax | None -> kmax
  in
  if len = 0 then no_plan
  else if len <= cap then
    Protocol.Answer
      {
        Protocol.next =
          float_of_int (Core.Optimal.first_checkpoint_q opt ~n ~delta) *. u;
        k = len;
        work = Core.Optimal.value_q opt ~n ~delta;
      }
  else
    let dp =
      Experiments.Strategy.serve_dp_table t.cache ~params ~horizon ~quantum
    in
    match Core.Dp.arg_best_m dp ~n ~k:cap with
    | 0 -> no_plan
    | k ->
        Protocol.Answer
          {
            Protocol.next =
              float_of_int (Core.Dp.first_checkpoint_q dp ~n ~k ~delta) *. u;
            k;
            work = Core.Dp.expected_work_q dp ~n ~k ~delta;
          }

(* One cache round trip: the slot's k-free table, built on a miss. *)
let fetch_table t q =
  Experiments.Strategy.serve_table t.cache ~params:q.Protocol.params
    ~horizon:q.Protocol.horizon ~quantum:q.Protocol.quantum

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
    (* A build runs to completion even when it overruns the budget: the
       table stays cached, the client's retry will hit it. *)
    let reply = answer t q (fetch q) in
    if Robust.Deadline.expired deadline then Protocol.Timeout else reply

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
   lookup, its batchmates reuse the result without touching the cache
   lock. Triples match by the cache's own key equality, so a batch
   builds exactly the tables sequential handling would. Per-query
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
    | Some (_, opt) -> opt
    | None ->
        let opt = fetch_table t q in
        memo := (key, opt) :: !memo;
        opt
  in
  List.map
    (function
      | Error msg -> Protocol.Failed msg
      | Ok request -> handle_with t ~fetch request)
    requests
