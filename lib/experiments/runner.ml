type point = {
  t : float;
  mean : float;
  ci95 : float;
  mean_failures : float;
  mean_checkpoints : float;
}

type curve = {
  c : float;
  strategy : Spec.strategy;
  name : string;
  points : point array;
}

type result = {
  spec : Spec.t;
  curves : curve list;
  partial : bool;
  missed : int;
}

type backend = Domains | Processes of Parallel.Proc_pool.t

let parent_pool backend pool =
  match backend with
  | Domains -> pool
  | Processes _ -> Parallel.Pool.create ~domains:1 ()

(* Per-(c, salt) trace seeds. The salt-0 stream feeds trace generation,
   salt i+1 the checkpoint-noise sampler of task i. The derivation
   hashes the exact decimal rendering of [c] (FNV-1a over "%.17g") so
   distinct checkpoint costs can never collide — the previous
   [int_of_float (c *. 97.0) * 1009] salt collapsed e.g. c = 10.0 and
   c = 10.001 onto the same seed. Seed compatibility note: this change
   shifts every Monte-Carlo stream, so goldens generated before it do
   not match (Spec.fingerprint was bumped to v2 in the same change, so
   stale journals are detected rather than silently resumed). *)
let seed_for base ~c ~salt =
  Int64.add base
    (Numerics.Checksum.fold_int
       (Numerics.Checksum.fnv1a64 (Printf.sprintf "%.17g" c))
       salt)

exception Sweep_failure of { completed : int; failed : int; first : exn }

let () =
  Printexc.register_printer (function
    | Sweep_failure { completed; failed; first } ->
        Some
          (Printf.sprintf
             "Runner.Sweep_failure: %d grid point(s) failed after retries \
              (%d completed%s); first failure: %s"
             failed completed
             " — completed points are preserved in the journal, if any"
             (Printexc.to_string first))
    | _ -> None)

let point_of_entry (e : Robust.Journal.entry) =
  {
    t = e.Robust.Journal.t;
    mean = e.Robust.Journal.mean;
    ci95 = e.Robust.Journal.ci95;
    mean_failures = e.Robust.Journal.mean_failures;
    mean_checkpoints = e.Robust.Journal.mean_checkpoints;
  }

let entry_of_point ~c ~strategy (p : point) =
  {
    Robust.Journal.c;
    strategy;
    t = p.t;
    mean = p.mean;
    ci95 = p.ci95;
    mean_failures = p.mean_failures;
    mean_checkpoints = p.mean_checkpoints;
  }

(* One C block's Monte-Carlo phase: build the shared tables, then sweep
   every uncached (strategy, t) task through the selected backend with
   per-task fault isolation. Each completed point is committed to the
   journal (if any) as soon as it settles — from inside the worker on the
   [Domains] backend, from the supervising parent on [Processes] (a
   forked child's journal writes would die with its copy-on-write heap)
   — so an interruption loses at most the points still in flight. *)
let sweep ~pool ~backend ~deadline ~progress ~journal ~retry ~chaos ~cache
    ~spec ~dist ~params ~c ~grid ~horizon_max ~tasks ~cached ~base =
  (* A malleable spec draws traces from the node-level model instead of
     the aggregate distribution: each trace then carries its own
     loss/rejoin schedule, replayed for every strategy so static and
     adaptive policies face identical platform histories. *)
  let traces, platforms =
    match spec.Spec.platform with
    | None ->
        ( Fault.Trace.batch ~dist
            ~seed:(seed_for spec.Spec.seed ~c ~salt:0)
            ~n:spec.Spec.n_traces,
          None )
    | Some model ->
        let histories =
          Fault.Trace.platform_batch ~model ~rate:spec.Spec.lambda
            ~d:spec.Spec.d ~horizon:horizon_max
            ~seed:(seed_for spec.Spec.seed ~c ~salt:0)
            ~n:spec.Spec.n_traces
        in
        ( Array.map fst histories,
          Some
            (Array.map
               (fun (_, events) ->
                 { Sim.Engine.initial = model.Fault.Trace.nodes; events })
               histories) )
  in
  (* Materialise every IAT any grid point can consume, so the
     parallel phase only reads the traces. *)
  Parallel.Pool.map pool traces ~f:(fun tr ->
      Fault.Trace.prefetch tr ~until:horizon_max)
  |> ignore;
  (* Predicted-event streams are derived from the (now memoised) traces
     under common random numbers — salt -1, disjoint from the trace
     stream (salt 0) and every checkpoint-noise stream (salt i+1) — and
     replayed for every strategy, so predicted and unpredicted policies
     face identical fault scenarios and identical announcements. *)
  let predictions =
    match spec.Spec.predictor with
    | None -> None
    | Some pr ->
        Some
          (Fault.Predictor.batch ~params:pr ~rate:spec.Spec.lambda
             ~horizon:horizon_max
             ~seed:(seed_for spec.Spec.seed ~c ~salt:(-1))
             traces)
  in
  (* Build whatever tables this (params, horizon) point still needs —
     in the parent, before any task runs, so compiles below are pure
     reads (safe from worker domains and forked workers alike). Tables
     already in the campaign cache (an earlier figure, a duplicated
     sub-plot) are reused as-is. *)
  Strategy.ensure ~pool cache ~params ~horizon:horizon_max ~dist
    spec.Spec.strategies;
  progress
    (Printf.sprintf "[%s] C = %g: sweeping %d lengths x %d strategies"
       spec.Spec.id c (Array.length grid)
       (List.length spec.Spec.strategies));
  let eval i (strategy, horizon) =
    let policy =
      Strategy.compile_exn cache ~params ~horizon:horizon_max ~dist strategy
    in
    let ckpt_sampler =
      match spec.Spec.ckpt_noise with
      | Spec.Deterministic -> None
      | Spec.Erlang shape ->
          let rng =
            Numerics.Rng.create
              ~seed:(seed_for spec.Spec.seed ~c ~salt:(i + 1))
          in
          Some
            (fun () ->
              Numerics.Rng.gamma_int rng ~shape
                ~scale:(c /. float_of_int shape))
    in
    let r =
      Sim.Runner.evaluate ?ckpt_sampler ?platforms ?predictions ~params
        ~horizon ~policy traces
    in
    {
      t = horizon;
      mean = r.Sim.Runner.proportion.Numerics.Stats.mean;
      ci95 = r.Sim.Runner.proportion.Numerics.Stats.ci95_half_width;
      mean_failures = r.Sim.Runner.mean_failures;
      mean_checkpoints = r.Sim.Runner.mean_checkpoints;
    }
  in
  (* Cached points never travel through a backend: they are free, so a
     deadline that expires mid-block cannot cancel them, and they must
     not be journaled a second time. *)
  let todo =
    Array.of_list
      (List.filter
         (fun i -> cached.(i) = None)
         (List.init (Array.length tasks) Fun.id))
  in
  (* The task key feeds chaos injection and retry jitter; the evaluation
     itself is a pure function of (i, task), so a retried attempt
     reproduces the fault-free value exactly. [dispatch_attempt] counts
     watchdog re-dispatches on the process backend (always 0 on domains):
     folding it into the chaos attempt number means a task whose previous
     incarnation was killed mid-hang draws {e fresh} chaos decisions, so
     a deterministic hang cannot livelock a retried dispatch. *)
  let compute ~dispatch_attempt i =
    let key = base + i in
    let run_attempt ~attempt =
      (match chaos with
      | Some ch ->
          Robust.Chaos.inject ch ~key
            ~attempt:((dispatch_attempt * retry.Robust.Retry.attempts) + attempt)
      | None -> ());
      eval i tasks.(i)
    in
    match Robust.Retry.run retry ~key run_attempt with
    | Ok p -> p
    | Error e -> raise e
  in
  (* Appends share the per-point retry budget: a transient I/O failure
     (real or injected) mid-append leaves the journal repaired back to
     the previous record boundary, so retrying the append is sound and
     "--retry N" covers the persistence path as well as the compute. *)
  let commit i p =
    match journal with
    | Some j ->
        let entry =
          entry_of_point ~c ~strategy:(Spec.strategy_name (fst tasks.(i))) p
        in
        (match
           Robust.Retry.run retry ~key:(base + i) (fun ~attempt:_ ->
               Robust.Journal.append j entry)
         with
        | Ok () -> ()
        | Error e -> raise e)
    | None -> ()
  in
  let computed =
    match backend with
    | Domains ->
        (* Commit runs inside the task body: a failing append (e.g. under
           journal fault injection) fails the task, same as the process
           backend's parent-side commit failing a settled result. *)
        Parallel.Pool.try_mapi pool todo ~f:(fun _j i ->
            Robust.Deadline.check deadline;
            let p = compute ~dispatch_attempt:0 i in
            commit i p;
            p)
    | Processes pp ->
        Parallel.Proc_pool.try_mapi pp todo
          ~should_stop:(fun () -> Robust.Deadline.expired deadline)
          ~on_result:(fun j p -> commit todo.(j) p)
          ~f:(fun ~attempt _j i -> compute ~dispatch_attempt:attempt i)
  in
  let outcomes =
    Array.map
      (function
        | Some p -> Ok p
        | None -> Error Robust.Deadline.Deadline_exceeded)
      cached
  in
  Array.iteri (fun j i -> outcomes.(i) <- computed.(j)) todo;
  outcomes

(* Deadline misses are bookkept apart from real failures: a point the
   budget cancelled is not broken, merely not yet computed, and must
   surface as [partial]/[missed] rather than as a {!Sweep_failure}. *)
let is_deadline_miss = function
  | Robust.Deadline.Deadline_exceeded | Parallel.Proc_pool.Cancelled -> true
  | _ -> false

let run ?pool ?(backend = Domains) ?(deadline = Robust.Deadline.unlimited)
    ?(progress = fun _ -> ()) ?journal ?(retry = Robust.Retry.no_retry) ?chaos
    ?cache spec =
  let cache =
    match cache with Some c -> c | None -> Strategy.Cache.create ()
  in
  let own_pool = pool = None in
  let pool = match pool with Some p -> p | None -> Parallel.Pool.create () in
  Fun.protect
    ~finally:(fun () -> if own_pool then Parallel.Pool.shutdown pool)
    (fun () ->
      let pool = parent_pool backend pool in
      (* The node-level model is exponential by construction, so a
         malleable spec must not also claim a non-exponential IAT
         distribution (the two would silently disagree). *)
      (match (spec.Spec.platform, spec.Spec.failure_dist) with
      | Some _, (Spec.Weibull_shape _ | Spec.Lognormal_sigma _) ->
          invalid_arg "Runner.run: platform model requires failure_dist = Exp"
      | _ -> ());
      let dist = Spec.trace_dist spec in
      (* Task keys must be unique across the whole spec (not just within
         one C block) so chaos injection and retry jitter never correlate
         between sub-plots. *)
      let task_base = ref 0 in
      (* Warm the table cache across every C block this run will
         actually sweep, before the first block's simulations start:
         tables for different (params, horizon) points are independent,
         so one pool-wide pass builds them concurrently instead of
         serially between per-block simulation bursts. Fully journaled
         blocks build nothing (a resume stays table-free), and an
         already-expired deadline skips the pass the same way it skips
         the sweeps. The per-block [Strategy.ensure] stays in [sweep] as
         the correctness anchor; after warm-up it only scores hits. *)
      if not (Robust.Deadline.expired deadline) then begin
        let block_done ~c grid =
          match journal with
          | None -> false
          | Some j ->
              List.for_all
                (fun strategy ->
                  let strategy = Spec.strategy_name strategy in
                  Array.for_all
                    (fun t -> Robust.Journal.find j ~c ~strategy ~t <> None)
                    grid)
                spec.Spec.strategies
        in
        let points =
          List.filter_map
            (fun c ->
              let grid = Spec.t_grid spec ~c in
              if Array.length grid = 0 || block_done ~c grid then None
              else
                Some
                  {
                    Strategy.wp_params =
                      Fault.Params.paper ~lambda:spec.Spec.lambda ~c
                        ~d:spec.Spec.d;
                    wp_horizon = grid.(Array.length grid - 1);
                    wp_dist = dist;
                    wp_strategies = spec.Spec.strategies;
                  })
            spec.Spec.cs
        in
        let built = Strategy.warm_up ~pool cache points in
        if built > 0 then
          progress
            (Printf.sprintf "[%s] warmed %d table(s) across %d block(s)"
               spec.Spec.id built (List.length points))
      end;
      (* Failures are collected across every C block — the whole grid is
         attempted (and its successes journaled) before the run gives
         up, so a relaunch has the most progress possible to resume. *)
      let total_completed = ref 0 and all_failures = ref [] in
      let total_missed = ref 0 in
      let curves =
        List.concat_map
          (fun c ->
            progress (Printf.sprintf "[%s] C = %g: preparing" spec.Spec.id c);
            let params =
              Fault.Params.paper ~lambda:spec.Spec.lambda ~c ~d:spec.Spec.d
            in
            let grid = Spec.t_grid spec ~c in
            if Array.length grid = 0 then []
            else begin
              let horizon_max = grid.(Array.length grid - 1) in
              let tasks =
                Array.of_list
                  (List.concat_map
                     (fun strategy ->
                       Array.to_list (Array.map (fun t -> (strategy, t)) grid))
                     spec.Spec.strategies)
              in
              let base = !task_base in
              task_base := base + Array.length tasks;
              (* Points already committed to the journal are reused
                 verbatim: journaled floats round-trip exactly, so a
                 resumed sweep reproduces the interrupted one's curves. *)
              let cached =
                Array.map
                  (fun (strategy, t) ->
                    match journal with
                    | None -> None
                    | Some j ->
                        Option.map point_of_entry
                          (Robust.Journal.find j ~c
                             ~strategy:(Spec.strategy_name strategy) ~t))
                  tasks
              in
              let n_cached =
                Array.fold_left
                  (fun acc o -> if o = None then acc else acc + 1)
                  0 cached
              in
              if n_cached > 0 then
                progress
                  (Printf.sprintf
                     "[%s] C = %g: %d/%d points resumed from journal"
                     spec.Spec.id c n_cached (Array.length tasks));
              let outcomes =
                if n_cached = Array.length tasks then
                  (* Fully journaled: skip trace generation and table
                     builds entirely (even past the deadline — cached
                     points are free). *)
                  Array.map (fun o -> Ok (Option.get o)) cached
                else if Robust.Deadline.expired deadline then begin
                  (* The budget ran out before this block: serve what the
                     journal has and mark the rest missed, without paying
                     for trace generation or table builds. *)
                  progress
                    (Printf.sprintf
                       "[%s] C = %g: deadline exhausted, skipping block"
                       spec.Spec.id c);
                  Array.map
                    (function
                      | Some p -> Ok p
                      | None -> Error Robust.Deadline.Deadline_exceeded)
                    cached
                end
                else
                  sweep ~pool ~backend ~deadline ~progress ~journal ~retry
                    ~chaos ~cache ~spec ~dist ~params ~c ~grid ~horizon_max
                    ~tasks ~cached ~base
              in
              let failures = ref [] and missed = ref 0 in
              Array.iter
                (function
                  | Ok _ -> incr total_completed
                  | Error e when is_deadline_miss e -> incr missed
                  | Error e -> failures := e :: !failures)
                outcomes;
              total_missed := !total_missed + !missed;
              if !missed > 0 then
                progress
                  (Printf.sprintf
                     "[%s] C = %g: %d point(s) missed the deadline"
                     spec.Spec.id c !missed);
              (match List.rev !failures with
              | _ :: _ as fs ->
                  (* Keep going: later C blocks still run and journal
                     their successes; the raise happens once at the end. *)
                  all_failures := !all_failures @ fs
              | [] -> ());
              (* A curve is emitted only when every one of its points is
                 Ok: partial curves would plot as distorted lines, and
                 the journal already preserves the completed points for a
                 resumed run to finish the rest. *)
              let strategy_of i = fst tasks.(i) in
              List.filter_map
                (fun strategy ->
                  let idx =
                    List.filter
                      (fun i -> strategy_of i = strategy)
                      (List.init (Array.length tasks) Fun.id)
                  in
                  let pts =
                    List.filter_map
                      (fun i ->
                        match outcomes.(i) with
                        | Ok p -> Some p
                        | Error _ -> None)
                      idx
                  in
                  if List.length pts = List.length idx then
                    Some
                      {
                        c;
                        strategy;
                        name = Spec.strategy_name strategy;
                        points = Array.of_list pts;
                      }
                  else None)
                spec.Spec.strategies
            end)
          spec.Spec.cs
      in
      (match !all_failures with
      | [] -> ()
      | first :: _ as fs ->
          raise
            (Sweep_failure
               {
                 completed = !total_completed;
                 failed = List.length fs;
                 first;
               }));
      { spec; curves; partial = !total_missed > 0; missed = !total_missed })

let curve_for result ~c ~strategy =
  List.find_opt
    (fun curve -> curve.c = c && curve.strategy = strategy)
    result.curves
