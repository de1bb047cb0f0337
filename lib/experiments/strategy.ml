(* The strategy registry: the one place that knows how a Spec.strategy
   is spelled, parsed, documented and compiled into a Sim.Policy.t.
   See strategy.mli for the architecture notes. *)

module Cache = struct
  type kind =
    | Threshold_numerical
    | Threshold_first_order
    | Dp of { quantum : float }
    | Optimal of { quantum : float }
    | Renewal of { quantum : float; dist : Fault.Trace.dist }

  let pp_dist ppf = function
    | Fault.Trace.Exponential { rate } -> Format.fprintf ppf "exp(%g)" rate
    | Fault.Trace.Weibull { shape; scale } ->
        Format.fprintf ppf "weibull(%g, %g)" shape scale
    | Fault.Trace.Lognormal { mu; sigma } ->
        Format.fprintf ppf "lognormal(%g, %g)" mu sigma

  let pp_kind ppf = function
    | Threshold_numerical -> Format.pp_print_string ppf "threshold-numerical"
    | Threshold_first_order -> Format.pp_print_string ppf "threshold-first-order"
    | Dp { quantum } -> Format.fprintf ppf "dp(u=%g)" quantum
    | Optimal { quantum } -> Format.fprintf ppf "optimal(u=%g)" quantum
    | Renewal { quantum; dist } ->
        Format.fprintf ppf "renewal(u=%g, %a)" quantum pp_dist dist

  type key = { params : Fault.Params.t; horizon : float; kind : kind }

  let key ~params ~horizon kind = { params; horizon; kind }

  (* The cache's one notion of identity: every float compares by its
     bit pattern, so bit-distinct values never share a table (-0.0 and
     0.0 stay apart, a NaN matches only its own payload). *)
  let same a b = Int64.bits_of_float a = Int64.bits_of_float b

  let same_dist a b =
    match (a, b) with
    | Fault.Trace.Exponential { rate }, Fault.Trace.Exponential { rate = rate' }
      ->
        same rate rate'
    | Weibull { shape; scale }, Weibull { shape = shape'; scale = scale' } ->
        same shape shape' && same scale scale'
    | Lognormal { mu; sigma }, Lognormal { mu = mu'; sigma = sigma' } ->
        same mu mu' && same sigma sigma'
    | (Exponential _ | Weibull _ | Lognormal _), _ -> false

  let same_kind a b =
    match (a, b) with
    | Threshold_numerical, Threshold_numerical
    | Threshold_first_order, Threshold_first_order ->
        true
    | Dp { quantum }, Dp { quantum = quantum' }
    | Optimal { quantum }, Optimal { quantum = quantum' } ->
        same quantum quantum'
    | Renewal { quantum; dist }, Renewal { quantum = quantum'; dist = dist' } ->
        same quantum quantum' && same_dist dist dist'
    | ( ( Threshold_numerical | Threshold_first_order | Dp _ | Optimal _
        | Renewal _ ),
        _ ) ->
        false

  let equal_key a b =
    let p = a.params and p' = b.params in
    same a.horizon b.horizon
    && same p.Fault.Params.lambda p'.Fault.Params.lambda
    && same p.c p'.c && same p.r p'.r && same p.d p'.d
    && same_kind a.kind b.kind

  module Store = Hashtbl.Make (struct
    type t = key

    let equal = equal_key

    (* Bit-equal keys are structurally equal, so the structural hash
       agrees with [equal_key]; it sends -0.0 and 0.0 (and every NaN)
       to one bucket, where [equal_key] tells them apart. *)
    let hash = Hashtbl.hash
  end)

  (* Serve's slot for one (params, quantum): the k-free table at the
     longest horizon asked so far, plus the k-indexed one there once a
     kleft cap bound. *)
  type serve = { horizon : float; opt : Core.Optimal.t; dp : Core.Dp.t option }

  type table =
    | T_threshold of Core.Threshold.table
    | T_optimal of Core.Optimal.t
    | T_renewal of Core.Dp_renewal.t
    | T_serve of serve

  (* What the memory bound charges per table: the exact buffer bytes
     reported by each core's [bytes] accessor (threshold tables are one
     float array). Headers and closure envelopes are noise next to the
     quadratic DP buffers, so they are not modelled. *)
  let table_bytes = function
    | T_threshold tbl -> 8 * Array.length tbl.Core.Threshold.thresholds
    | T_optimal opt -> Core.Optimal.bytes opt
    | T_renewal dp -> Core.Dp_renewal.bytes dp
    | T_serve { opt; dp; _ } ->
        Core.Optimal.bytes opt
        + Option.fold ~none:0 ~some:Core.Dp.bytes dp

  (* Each slot keeps its store key for eviction. *)
  type slot = { key : key; table : table; size : int; mutable stamp : int }

  type t = {
    store : slot Store.t;
    lock : Mutex.t;
    max_tables : int option;
    max_bytes : int option;
    mutable tick : int;
    mutable builds : int;
    mutable hits : int;
    mutable evictions : int;
    mutable resident : int;
  }

  let create ?max_tables ?max_bytes () =
    let check name = function
      | Some v when v < 1 ->
          invalid_arg (Printf.sprintf "Strategy.Cache.create: %s < 1" name)
      | _ -> ()
    in
    check "max_tables" max_tables;
    check "max_bytes" max_bytes;
    {
      store = Store.create 16;
      lock = Mutex.create ();
      max_tables;
      max_bytes;
      tick = 0;
      builds = 0;
      hits = 0;
      evictions = 0;
      resident = 0;
    }

  let locked t f = Mutex.protect t.lock f
  let builds t = locked t (fun () -> t.builds)
  let hits t = locked t (fun () -> t.hits)
  let evictions t = locked t (fun () -> t.evictions)
  let resident_tables t = locked t (fun () -> Store.length t.store)
  let resident_bytes t = locked t (fun () -> t.resident)

  type stats = {
    s_builds : int;
    s_hits : int;
    s_evictions : int;
    s_resident_tables : int;
    s_resident_bytes : int;
  }

  let stats t =
    locked t (fun () ->
        {
          s_builds = t.builds;
          s_hits = t.hits;
          s_evictions = t.evictions;
          s_resident_tables = Store.length t.store;
          s_resident_bytes = t.resident;
        })

  let touch t slot =
    t.tick <- t.tick + 1;
    slot.stamp <- t.tick

  let over_bound t =
    (match t.max_tables with
    | Some m -> Store.length t.store > m
    | None -> false)
    ||
    match t.max_bytes with Some m -> t.resident > m | None -> false

  let evict_oldest t =
    let victim =
      Store.fold
        (fun _ slot acc ->
          match acc with
          | Some best when best.stamp <= slot.stamp -> acc
          | _ -> Some slot)
        t.store None
    in
    match victim with
    | None -> ()
    | Some slot ->
        Store.remove t.store slot.key;
        t.resident <- t.resident - slot.size;
        t.evictions <- t.evictions + 1

  (* A serve slot is stored under its platform and quantum alone, and
     answers every horizon up to its own; other kinds match exactly. *)
  let store_key key =
    match key.kind with Dp _ -> { key with horizon = 0.0 } | _ -> key

  (* Store [table] under [key] (lock held), then shed least-recently-used
     entries until back under the bound, but never the entry just
     stored: it holds the newest stamp, and the [> 1] guard keeps it
     when it alone exceeds the byte bound — a lone oversized table must
     stay answerable. Replacing a slot (a longer serve horizon, or the
     k-indexed table joining it) must not double-charge the bytes. *)
  let add t key table =
    let key = store_key key in
    (match Store.find_opt t.store key with
    | Some old -> t.resident <- t.resident - old.size
    | None -> ());
    let slot = { key; table; size = table_bytes table; stamp = 0 } in
    touch t slot;
    Store.replace t.store key slot;
    t.resident <- t.resident + slot.size;
    while over_bound t && Store.length t.store > 1 do
      evict_oldest t
    done

  (* Lookups touch the LRU stamp: a table an [ensure] or a [compile]
     just used is the one a bounded cache should keep. *)
  let lookup t key =
    match Store.find_opt t.store (store_key key) with
    | Some { table = T_serve s; _ } when not (key.horizon <= s.horizon) -> None
    | Some slot ->
        touch t slot;
        Some slot.table
    | None -> None

  let mem t key = locked t (fun () -> Option.is_some (lookup t key))

  (* A lookup that counts the hit under the same lock: {!ensure}'s and
     serve's path. *)
  let fetch t key =
    locked t (fun () ->
        let found = lookup t key in
        if Option.is_some found then t.hits <- t.hits + 1;
        found)

  let find t key = locked t (fun () -> lookup t key)

  let serve_of ~params ~quantum ~horizon =
    let opt = Core.Optimal.build ~params ~quantum ~horizon () in
    { horizon; opt; dp = None }

  let build { params; horizon; kind } =
    match kind with
    | Threshold_numerical ->
        T_threshold (Core.Threshold.table_numerical ~params ~up_to:horizon)
    | Threshold_first_order ->
        T_threshold (Core.Threshold.table_first_order ~params ~up_to:horizon)
    | Optimal { quantum } ->
        T_optimal (Core.Optimal.build ~params ~quantum ~horizon ())
    | Dp { quantum } -> T_serve (serve_of ~params ~quantum ~horizon)
    | Renewal { quantum; dist } ->
        T_renewal (Core.Dp_renewal.build ~params ~dist ~quantum ~horizon ())

  (* Racing builders of one key waste a build; a race that puts a
     shorter serve slot last costs a rebuild, never a wrong answer. *)
  let insert t key table =
    locked t (fun () ->
        t.builds <- t.builds + 1;
        add t key table)
end

type error =
  | Missing_table of {
      kind : Cache.kind;
      params : Fault.Params.t;
      horizon : float;
    }

let error_message = function
  | Missing_table { kind; params; horizon } ->
      Format.asprintf
        "Strategy: table %a for %s, horizon %g was never built — call \
         Strategy.ensure before compiling (configuration error)"
        Cache.pp_kind kind
        (Fault.Params.to_string params)
        horizon

(* Typed lookups: the key encodes the kind, so a present entry always
   carries the matching constructor; absence is the diagnosed error. *)
let missing kind ~params ~horizon = Error (Missing_table { kind; params; horizon })

let find_threshold cache ~params ~horizon kind =
  match Cache.find cache (Cache.key ~params ~horizon kind) with
  | Some (Cache.T_threshold t) -> Ok t
  | _ -> missing kind ~params ~horizon

let find_renewal cache ~params ~horizon kind =
  match Cache.find cache (Cache.key ~params ~horizon kind) with
  | Some (Cache.T_renewal t) -> Ok t
  | _ -> missing kind ~params ~horizon

(* Serve's slot: a hit when its horizon covers [horizon], else a build
   there that replaces a shorter slot. *)
let serve_slot cache ~params ~horizon ~quantum =
  let key = Cache.key ~params ~horizon (Cache.Dp { quantum }) in
  match Cache.fetch cache key with
  | Some (Cache.T_serve s) -> s
  | _ ->
      let s = Cache.serve_of ~params ~quantum ~horizon in
      Cache.insert cache key (Cache.T_serve s);
      s

let serve_table cache ~params ~horizon ~quantum =
  (serve_slot cache ~params ~horizon ~quantum).opt

(* A cap binds only below the length of the k-free re-plan it cuts, and
   a cell (n, k) reads no row above k, so rows up to the longest such
   plan minus one hold every binding answer. The new table replaces its
   slot by one holding both. *)
let serve_dp_table cache ~params ~horizon ~quantum =
  let key = Cache.key ~params ~horizon (Cache.Dp { quantum }) in
  let s =
    match Cache.find cache key with
    | Some (Cache.T_serve s) -> s
    | _ -> serve_slot cache ~params ~horizon ~quantum
  in
  match s.dp with
  | Some dp -> dp
  | None ->
      let longest = ref 1 in
      for n = 1 to Core.Optimal.horizon_quanta s.opt do
        let len = Core.Optimal.plan_length s.opt ~n ~delta:true in
        longest := max !longest len
      done;
      let dp =
        Core.Dp.build ~kmax:(max 1 (!longest - 1)) ~params ~quantum
          ~horizon:s.horizon ()
      in
      Cache.insert cache key (Cache.T_serve { s with dp = Some dp });
      dp

let dp_table cache ~params ~horizon ~quantum =
  let kind = Cache.Dp { quantum } in
  match Cache.find cache (Cache.key ~params ~horizon kind) with
  | Some (Cache.T_serve { dp = Some t; _ }) -> Ok t
  | _ -> missing kind ~params ~horizon

type entry = {
  cli : string;
  doc : string;
  arg_docv : string option;
  example : Spec.strategy;
  parse : arg:string option -> (Spec.strategy, string) result;
  print_arg : Spec.strategy -> string option;
  owns : Spec.strategy -> bool;
  requires : dist:Fault.Trace.dist -> Spec.strategy -> Cache.kind list;
  compile :
    Cache.t ->
    params:Fault.Params.t ->
    horizon:float ->
    dist:Fault.Trace.dist ->
    Spec.strategy ->
    (Sim.Policy.t, error) result;
}

let ( let* ) = Result.bind

(* CLI argument rendering: "%g" when it round-trips (every shipped value
   does), an exact 17-digit rendering otherwise — so to_string/of_string
   is a bijection on representable strategies. *)
let render_float v =
  let s = Printf.sprintf "%g" v in
  if float_of_string s = v then s else Printf.sprintf "%.17g" v

(* Per-entry argument parsers. Each entry owns the grammar of its [:ARG]
   suffix; these helpers cover the three shapes in the registry (a
   positive quantum, a probability, a non-negative width). *)
let no_arg ~cli strategy ~arg =
  match arg with
  | None -> Ok strategy
  | Some _ -> Error (Printf.sprintf "%s takes no argument" cli)

let parse_quantum ~cli ~arg =
  match arg with
  | None -> Ok None
  | Some qt -> (
      match float_of_string_opt qt with
      | Some q when q > 0.0 -> Ok (Some q)
      | Some _ ->
          Error (Printf.sprintf "quantum must be > 0 in %S" (cli ^ ":" ^ qt))
      | None ->
          Error (Printf.sprintf "bad quantum %S in %S" qt (cli ^ ":" ^ qt)))

let parse_probability name text =
  match float_of_string_opt (String.trim text) with
  | Some v when Float.is_finite v && v >= 0.0 && v <= 1.0 -> Ok v
  | _ -> Error (Printf.sprintf "%s must lie in [0, 1], got %S" name text)

let parse_width name text =
  match float_of_string_opt (String.trim text) with
  | Some v when Float.is_finite v && v >= 0.0 -> Ok v
  | _ -> Error (Printf.sprintf "%s must be finite >= 0, got %S" name text)

(* Helper for the entries that need no tables and ignore the cache. *)
let simple ~cli ~doc ~strategy ~policy =
  {
    cli;
    doc;
    arg_docv = None;
    example = strategy;
    parse = no_arg ~cli strategy;
    print_arg = (fun _ -> None);
    owns = (fun s -> s = strategy);
    requires = (fun ~dist:_ _ -> []);
    compile =
      (fun _cache ~params ~horizon:_ ~dist:_ _ -> Ok (policy ~params));
  }

let rec quantum_of = function
  | Spec.Dynamic_programming { quantum }
  | Spec.Optimal_unrestricted { quantum }
  | Spec.Renewal_dp { quantum } ->
      quantum
  | Spec.Adaptive s -> quantum_of s
  | _ -> 1.0

(* The k-free table every DP-backed entry compiles from: one key per
   quantum, u = 1 for the entries that take none. *)
let optimal_requires ~dist:_ s = [ Cache.Optimal { quantum = quantum_of s } ]

let find_optimal cache ~params ~horizon s =
  let kind = Cache.Optimal { quantum = quantum_of s } in
  match Cache.find cache (Cache.key ~params ~horizon kind) with
  | Some (Cache.T_optimal t) -> Ok t
  | _ -> missing kind ~params ~horizon

(* Entries whose [:ARG] is an optional quantum, default 1. *)
let quantum_entry ~cli ~doc ~make ~owns ~requires ~compile =
  {
    cli;
    doc;
    arg_docv = Some "U";
    example = make 1.0;
    parse =
      (fun ~arg ->
        let* quantum = parse_quantum ~cli ~arg in
        Ok (make (Option.value quantum ~default:1.0)));
    print_arg =
      (fun s ->
        let q = quantum_of s in
        if Float.equal q 1.0 then None else Some (render_float q));
    owns;
    requires;
    compile;
  }

let base_entries =
  [
    simple ~cli:"young-daly" ~strategy:Spec.Young_daly
      ~doc:
        "periodic checkpoints every sqrt(2µC) of work, final checkpoint at \
         the end"
      ~policy:(fun ~params -> Core.Policies.young_daly ~params);
    {
      cli = "first-order";
      doc =
        "threshold heuristic with the first-order thresholds of Equation (5)";
      arg_docv = None;
      example = Spec.First_order;
      parse = no_arg ~cli:"first-order" Spec.First_order;
      print_arg = (fun _ -> None);
      owns = (fun s -> s = Spec.First_order);
      requires = (fun ~dist:_ _ -> [ Cache.Threshold_first_order ]);
      compile =
        (fun cache ~params ~horizon ~dist:_ _ ->
          let* table =
            find_threshold cache ~params ~horizon Cache.Threshold_first_order
          in
          Ok (Core.Policies.of_threshold_table ~name:"FirstOrder" ~params table));
    };
    {
      cli = "numerical-optimum";
      doc = "threshold heuristic with numerically computed thresholds";
      arg_docv = None;
      example = Spec.Numerical_optimum;
      parse = no_arg ~cli:"numerical-optimum" Spec.Numerical_optimum;
      print_arg = (fun _ -> None);
      owns = (fun s -> s = Spec.Numerical_optimum);
      requires = (fun ~dist:_ _ -> [ Cache.Threshold_numerical ]);
      compile =
        (fun cache ~params ~horizon ~dist:_ _ ->
          let* table =
            find_threshold cache ~params ~horizon Cache.Threshold_numerical
          in
          Ok
            (Core.Policies.of_threshold_table ~name:"NumericalOptimum" ~params
               table));
    };
    quantum_entry ~cli:"dp"
      ~doc:"the Section 6 dynamic program over time quanta (optimal)"
      ~make:(fun quantum -> Spec.Dynamic_programming { quantum })
      ~owns:(function Spec.Dynamic_programming _ -> true | _ -> false)
      ~requires:optimal_requires
      ~compile:(fun cache ~params ~horizon ~dist:_ s ->
        (* The k-free table gives the Section 6 values and plans bit for
           bit on every figure (test_optimal), without the k index. *)
        let* opt = find_optimal cache ~params ~horizon s in
        Ok
          {
            (Core.Optimal.policy opt) with
            Sim.Policy.name = "DynamicProgramming";
          });
    simple ~cli:"single-final" ~strategy:Spec.Single_final
      ~doc:"one checkpoint at the very end of the reservation (Strat1)"
      ~policy:(fun ~params -> Core.Policies.single_final ~params);
    simple ~cli:"daly-second-order" ~strategy:Spec.Daly_second_order
      ~doc:"Young/Daly scheme with Daly's higher-order period (ablation)"
      ~policy:(fun ~params -> Core.Policies.daly_second_order ~params);
    simple ~cli:"lambert-period" ~strategy:Spec.Lambert_period
      ~doc:
        "Young/Daly scheme with the exact fixed-work-optimal period \
         (ablation: optimal for the wrong objective)"
      ~policy:(fun ~params -> Core.Policies.lambert_optimal_period ~params);
    simple ~cli:"no-checkpoint" ~strategy:Spec.No_checkpoint
      ~doc:"never checkpoint (lower-bound baseline)"
      ~policy:(fun ~params:_ -> Sim.Policy.no_checkpoint);
    {
      cli = "variable-segments";
      doc =
        "threshold checkpoint count with continuously optimised offsets \
         over the DP value tables (ablation)";
      arg_docv = None;
      example = Spec.Variable_segments;
      parse = no_arg ~cli:"variable-segments" Spec.Variable_segments;
      print_arg = (fun _ -> None);
      owns = (fun s -> s = Spec.Variable_segments);
      (* The u = 1 DP values serve as the continuation function. *)
      requires = optimal_requires;
      compile =
        (fun cache ~params ~horizon ~dist:_ s ->
          let* opt = find_optimal cache ~params ~horizon s in
          Ok (Core.Plan_opt.variable_segments_policy ~params ~horizon ~opt));
    };
    quantum_entry ~cli:"optimal"
      ~doc:"the k-free quantised optimum of Core.Optimal (ablation)"
      ~make:(fun quantum -> Spec.Optimal_unrestricted { quantum })
      ~owns:(function Spec.Optimal_unrestricted _ -> true | _ -> false)
      ~requires:optimal_requires
      ~compile:(fun cache ~params ~horizon ~dist:_ s ->
        Result.map Core.Optimal.policy (find_optimal cache ~params ~horizon s));
    quantum_entry ~cli:"renewal-dp"
      ~doc:
        "renewal-aware DP built for the spec's IAT distribution \
         (non-memoryless-aware optimum, extension)"
      ~make:(fun quantum -> Spec.Renewal_dp { quantum })
      ~owns:(function Spec.Renewal_dp _ -> true | _ -> false)
      ~requires:(fun ~dist s ->
        [ Cache.Renewal { quantum = quantum_of s; dist } ])
      ~compile:(fun cache ~params ~horizon ~dist s ->
        let* renewal =
          find_renewal cache ~params ~horizon
            (Cache.Renewal { quantum = quantum_of s; dist })
        in
        Ok (Core.Dp_renewal.policy renewal));
    simple ~cli:"restart" ~strategy:Spec.Restart
      ~doc:
        "pure restart baseline: no intermediate checkpoints, a failure \
         loses everything and only a final commit banks work"
      ~policy:(fun ~params ->
        {
          (Core.Policies.single_final ~params) with
          Sim.Policy.name = Spec.strategy_name Spec.Restart;
        });
    {
      cli = "predicted-young-daly";
      doc =
        "Young/Daly with the recall-corrected period sqrt(2µC/(1-r)) and \
         a proactive checkpoint on every fired prediction (prediction \
         extension; defaults p=1, r=1)";
      arg_docv = Some "P,R";
      example = Spec.Predicted_young_daly { p = 1.0; r = 1.0 };
      parse =
        (fun ~arg ->
          match arg with
          | None -> Ok (Spec.Predicted_young_daly { p = 1.0; r = 1.0 })
          | Some a -> (
              match String.split_on_char ',' a with
              | [ ps; rs ] ->
                  let* p = parse_probability "precision" ps in
                  let* r = parse_probability "recall" rs in
                  Ok (Spec.Predicted_young_daly { p; r })
              | _ ->
                  Error
                    (Printf.sprintf
                       "expected P,R after predicted-young-daly: in %S" a)));
      print_arg =
        (function
        | Spec.Predicted_young_daly { p; r } ->
            if Float.equal p 1.0 && Float.equal r 1.0 then None
            else Some (render_float p ^ "," ^ render_float r)
        | _ -> None);
      owns = (function Spec.Predicted_young_daly _ -> true | _ -> false);
      requires = (fun ~dist:_ _ -> []);
      compile =
        (fun _cache ~params ~horizon:_ ~dist:_ s ->
          match s with
          | Spec.Predicted_young_daly { p = _; r } ->
              let mu = Fault.Params.mtbf params in
              let c = params.Fault.Params.c in
              (* With full recall every failure is announced, so periodic
                 checkpoints only guard against missed faults: the
                 corrected period diverges and the plan degenerates to a
                 single final commit. *)
              let period =
                if Float.equal r 1.0 then infinity
                else sqrt (2.0 *. mu *. c /. (1.0 -. r))
              in
              let policy = Sim.Policy.periodic ~params ~period in
              let policy =
                { policy with Sim.Policy.name = Spec.strategy_name s }
              in
              Ok
                (Sim.Policy.set_on_prediction policy
                   (fun ~tleft:_ ~since_commit:_ ~window:_ -> true))
          | _ -> invalid_arg "Strategy: predicted-young-daly compile");
    };
    {
      cli = "proactive-window";
      doc =
        "the Section 6 DP plan, trusting predictions whose window is at \
         most W with a proactive checkpoint (prediction extension; \
         default W=60)";
      arg_docv = Some "W";
      example = Spec.Proactive_window { w = 60.0 };
      parse =
        (fun ~arg ->
          match arg with
          | None -> Ok (Spec.Proactive_window { w = 60.0 })
          | Some a ->
              let* w = parse_width "window" a in
              Ok (Spec.Proactive_window { w }));
      print_arg =
        (function
        | Spec.Proactive_window { w } ->
            if Float.equal w 60.0 then None else Some (render_float w)
        | _ -> None);
      owns = (function Spec.Proactive_window _ -> true | _ -> false);
      (* Rides on the u = 1 DP table, shared with dp/adaptive-dp
         through the campaign cache. *)
      requires = optimal_requires;
      compile =
        (fun cache ~params ~horizon ~dist:_ s ->
          match s with
          | Spec.Proactive_window { w } ->
              let* opt = find_optimal cache ~params ~horizon s in
              let policy = Core.Optimal.policy opt in
              let policy =
                { policy with Sim.Policy.name = Spec.strategy_name s }
              in
              (* Trust only tight windows: a wide window would park the
                 proactive checkpoint too early to help. *)
              Ok
                (Sim.Policy.set_on_prediction policy
                   (fun ~tleft:_ ~since_commit:_ ~window -> window <= w))
          | _ -> invalid_arg "Strategy: proactive-window compile");
    };
  ]

let base_entry_of strategy =
  match List.find_opt (fun e -> e.owns strategy) base_entries with
  | Some e -> e
  | None ->
      invalid_arg
        (Printf.sprintf "Strategy: no base registry entry owns %s"
           (Spec.strategy_name strategy))

(* The distinct keys among [keys] by the cache's own identity, in
   first-seen order (deterministic for a fixed spec list), so a table
   two strategies or two figures share is built once. *)
let distinct keys =
  List.rev
    (List.fold_left
       (fun acc k ->
         if List.exists (Cache.equal_key k) acc then acc else k :: acc)
       [] keys)

(* Build the tables (concurrently on [pool]) and insert them. Inserts
   stay in the caller: workers only ever read the cache. *)
let build_all ?pool cache keys =
  let keys = Array.of_list keys in
  let tables =
    match pool with
    | Some pool -> Parallel.Pool.map pool keys ~f:Cache.build
    | None -> Array.map Cache.build keys
  in
  Array.iter2 (Cache.insert cache) keys tables

(* Count a hit for each resident table and build the others. *)
let ensure_keys ?pool cache keys =
  let absent key = Option.is_none (Cache.fetch cache key) in
  match List.filter absent (distinct keys) with
  | [] -> ()
  | missing -> build_all ?pool cache missing

(* Synchronous ensure for one strategy, used from inside a policy's
   adapt hook: an online re-plan cannot wait for a batch ensure, and it
   must count a hit when the degraded-λ tables are already resident (a
   shrinking platform revisiting a λ level — the malleability drills
   assert on exactly this counter). *)
let ensure_one cache ~params ~horizon ~dist strategy =
  ensure_keys cache
    (List.map (Cache.key ~params ~horizon)
       ((base_entry_of strategy).requires ~dist strategy))

(* Wrap a compiled base policy so every platform change recompiles it
   against the degraded parameters — through the shared cache, so a
   revisited failure rate is a table hit, not a rebuild. The rebuilt
   policy is adaptified again: repeated shrinks keep re-planning. *)
let rec adaptify cache ~horizon ~dist ~inner policy =
  let policy =
    { policy with Sim.Policy.name = "Adaptive" ^ policy.Sim.Policy.name }
  in
  Sim.Policy.set_adapt policy (fun params' ->
      ensure_one cache ~params:params' ~horizon ~dist inner;
      match
        (base_entry_of inner).compile cache ~params:params' ~horizon ~dist inner
      with
      | Ok p -> adaptify cache ~horizon ~dist ~inner p
      | Error e -> failwith (error_message e))

(* Adaptive entries delegate spelling, quantum handling, table needs and
   compilation to the wrapped base entry, then adaptify the result. *)
let adaptive_entry ~cli ~doc inner_cli =
  let inner_entry = List.find (fun e -> e.cli = inner_cli) base_entries in
  {
    cli;
    doc;
    arg_docv = inner_entry.arg_docv;
    example = Spec.Adaptive inner_entry.example;
    parse =
      (fun ~arg ->
        Result.map (fun s -> Spec.Adaptive s) (inner_entry.parse ~arg));
    print_arg =
      (function Spec.Adaptive s -> inner_entry.print_arg s | _ -> None);
    owns = (function Spec.Adaptive s -> inner_entry.owns s | _ -> false);
    requires =
      (fun ~dist s ->
        match s with
        | Spec.Adaptive inner -> inner_entry.requires ~dist inner
        | _ -> []);
    compile =
      (fun cache ~params ~horizon ~dist s ->
        match s with
        | Spec.Adaptive inner ->
            let* p = inner_entry.compile cache ~params ~horizon ~dist inner in
            Ok (adaptify cache ~horizon ~dist ~inner p)
        | _ ->
            invalid_arg
              (Printf.sprintf "Strategy: %s compiled on a non-adaptive %s" cli
                 (Spec.strategy_name s)));
  }

let entries =
  base_entries
  @ [
      adaptive_entry ~cli:"adaptive-young-daly"
        ~doc:
          "Young/Daly, re-planned online against the surviving-node failure \
           rate on every platform change"
        "young-daly";
      adaptive_entry ~cli:"adaptive-dp"
        ~doc:
          "the Section 6 DP, re-planned online on every platform change \
           (degraded-λ tables share the campaign cache)"
        "dp";
    ]

let name = Spec.strategy_name

let entry_of strategy =
  match List.find_opt (fun e -> e.owns strategy) entries with
  | Some e -> e
  | None ->
      (* Unreachable while the registry covers the Spec.strategy variant;
         a loud failure beats a silent miscompile if they ever drift. *)
      invalid_arg
        (Printf.sprintf "Strategy: no registry entry owns %s"
           (Spec.strategy_name strategy))

let spelling e =
  match e.arg_docv with None -> e.cli | Some d -> e.cli ^ "[:" ^ d ^ "]"

let to_string strategy =
  let e = entry_of strategy in
  match e.print_arg strategy with
  | None -> e.cli
  | Some a -> Printf.sprintf "%s:%s" e.cli a

let known_spellings () = String.concat ", " (List.map spelling entries)

let of_string text =
  let keyword, arg =
    match String.index_opt text ':' with
    | None -> (text, None)
    | Some i ->
        ( String.sub text 0 i,
          Some (String.sub text (i + 1) (String.length text - i - 1)) )
  in
  match List.find_opt (fun e -> e.cli = keyword) entries with
  | None ->
      Error
        (Printf.sprintf "unknown strategy %S (known: %s)" text
           (known_spellings ()))
  | Some e -> e.parse ~arg

(* A comma both separates strategies and separates the arguments of one
   (predicted-young-daly:0.8,0.9), so the list split is keyword-aware: a
   token opens a new strategy only when it starts with a registered cli
   spelling; otherwise it continues the previous token's argument. *)
let starts_strategy token =
  List.exists
    (fun e ->
      token = e.cli
      || String.length token > String.length e.cli
         && String.sub token 0 (String.length e.cli + 1) = e.cli ^ ":")
    entries

let of_string_list text =
  let tokens = List.map String.trim (String.split_on_char ',' text) in
  let groups =
    List.fold_left
      (fun acc tok ->
        match acc with
        | group :: rest when not (starts_strategy tok) ->
            (group ^ "," ^ tok) :: rest
        | _ -> tok :: acc)
      [] tokens
    |> List.rev
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | spec :: rest -> (
        match of_string spec with
        | Ok s -> go (s :: acc) rest
        | Error _ as e -> e)
  in
  match groups with
  | [ "" ] -> Error "empty strategy list"
  | specs -> ( match go [] specs with Ok [] -> Error "empty strategy list" | r -> r)

let requires ~dist strategy = (entry_of strategy).requires ~dist strategy

let keys_of ~params ~horizon ~dist strategies =
  List.concat_map
    (fun s -> List.map (Cache.key ~params ~horizon) (requires ~dist s))
    strategies

let ensure ?pool cache ~params ~horizon ~dist strategies =
  ensure_keys ?pool cache (keys_of ~params ~horizon ~dist strategies)

type warm_point = {
  wp_params : Fault.Params.t;
  wp_horizon : float;
  wp_dist : Fault.Trace.dist;
  wp_strategies : Spec.strategy list;
}

let warm_up ?pool cache points =
  (* The distinct tables the whole campaign will need, minus the ones
     the cache already holds. *)
  let todo =
    List.concat_map
      (fun wp ->
        keys_of ~params:wp.wp_params ~horizon:wp.wp_horizon ~dist:wp.wp_dist
          wp.wp_strategies)
      points
    |> distinct
    |> List.filter (fun key -> not (Cache.mem cache key))
  in
  (* Unlike {!ensure}, the hits counter is untouched — warm-up is not a
     lookup, and later {!ensure} calls will count their (now
     guaranteed) hits. *)
  build_all ?pool cache todo;
  List.length todo

let warm_points_of_spec spec =
  let dist = Spec.trace_dist spec in
  List.filter_map
    (fun c ->
      let grid = Spec.t_grid spec ~c in
      if Array.length grid = 0 then None
      else
        Some
          {
            wp_params =
              Fault.Params.paper ~lambda:spec.Spec.lambda ~c ~d:spec.Spec.d;
            wp_horizon = grid.(Array.length grid - 1);
            wp_dist = dist;
            wp_strategies = spec.Spec.strategies;
          })
    spec.Spec.cs

let warm_up_specs ?pool cache specs =
  warm_up ?pool cache (List.concat_map warm_points_of_spec specs)

let compile cache ~params ~horizon ~dist strategy =
  (entry_of strategy).compile cache ~params ~horizon ~dist strategy

let compile_exn cache ~params ~horizon ~dist strategy =
  match compile cache ~params ~horizon ~dist strategy with
  | Ok policy -> policy
  | Error e -> failwith (error_message e)

let listing () =
  List.map
    (fun e ->
      (spelling e, Spec.strategy_name e.example, e.doc))
    entries

let markdown_table () =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "| CLI spelling | Strategy | Description |\n";
  Buffer.add_string buf "|---|---|---|\n";
  List.iter
    (fun (cli, name, doc) ->
      Buffer.add_string buf (Printf.sprintf "| `%s` | %s | %s |\n" cli name doc))
    (listing ());
  Buffer.contents buf
