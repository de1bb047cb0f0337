type dist =
  | Exponential of { rate : float }
  | Weibull of { shape : float; scale : float }
  | Lognormal of { mu : float; sigma : float }

let gamma_fn = Numerics.Specfun.gamma

let dist_mean = function
  | Exponential { rate } -> 1.0 /. rate
  | Weibull { shape; scale } -> scale *. gamma_fn (1.0 +. (1.0 /. shape))
  | Lognormal { mu; sigma } -> exp (mu +. (0.5 *. sigma *. sigma))

let dist_survival dist x =
  if x <= 0.0 then 1.0
  else
    match dist with
    | Exponential { rate } -> exp (-.rate *. x)
    | Weibull { shape; scale } -> exp (-.((x /. scale) ** shape))
    | Lognormal { mu; sigma } ->
        Numerics.Specfun.normal_sf ~mu ~sigma (log x)

let weibull_with_mtbf ~shape ~mtbf =
  if shape <= 0.0 || mtbf <= 0.0 then
    invalid_arg "Trace.weibull_with_mtbf: arguments must be positive";
  let scale = mtbf /. gamma_fn (1.0 +. (1.0 /. shape)) in
  Weibull { shape; scale }

let lognormal_with_mtbf ~sigma ~mtbf =
  if sigma < 0.0 || mtbf <= 0.0 then
    invalid_arg "Trace.lognormal_with_mtbf: sigma >= 0 and mtbf > 0 required";
  let mu = log mtbf -. (0.5 *. sigma *. sigma) in
  Lognormal { mu; sigma }

type source = Generator of Numerics.Rng.t * dist | Fixed

type t = {
  mutable iats : float array;  (* memoised prefix *)
  mutable len : int;  (* number of valid entries in [iats] *)
  source : source;
}

let create ~dist ~seed =
  {
    iats = Array.make 16 0.0;
    len = 0;
    source = Generator (Numerics.Rng.create ~seed, dist);
  }

let of_iats iats =
  Array.iter
    (fun x ->
      if not (Float.is_finite x && x > 0.0) then
        invalid_arg "Trace.of_iats: IATs must be positive and finite")
    iats;
  { iats = Array.copy iats; len = Array.length iats; source = Fixed }

let draw rng = function
  | Exponential { rate } -> Numerics.Rng.exponential rng ~rate
  | Weibull { shape; scale } -> Numerics.Rng.weibull rng ~shape ~scale
  | Lognormal { mu; sigma } -> Numerics.Rng.lognormal rng ~mu ~sigma

let ensure t j =
  if j >= t.len then begin
    match t.source with
    | Fixed ->
        invalid_arg
          (Printf.sprintf "Trace.iat: index %d beyond fixed trace of length %d"
             j t.len)
    | Generator (rng, dist) ->
        if j >= Array.length t.iats then begin
          let cap = max (j + 1) (2 * Array.length t.iats) in
          let bigger = Array.make cap 0.0 in
          Array.blit t.iats 0 bigger 0 t.len;
          t.iats <- bigger
        end;
        for i = t.len to j do
          t.iats.(i) <- draw rng dist
        done;
        t.len <- j + 1
  end

let iat t j =
  if j < 0 then invalid_arg "Trace.iat: negative index";
  ensure t j;
  t.iats.(j)

let batch ~dist ~seed ~n =
  if n < 0 then invalid_arg "Trace.batch: n < 0";
  let master = Numerics.Rng.create ~seed in
  Array.init n (fun _ ->
      let sub = Numerics.Rng.split master in
      {
        iats = Array.make 16 0.0;
        len = 0;
        source = Generator (sub, dist);
      })

let rec prefetch_from t ~until ~index ~clock =
  if clock <= until then
    prefetch_from t ~until ~index:(index + 1) ~clock:(clock +. iat t (index + 1))

let iats_until t ~until =
  let rec count i acc =
    let stop =
      match t.source with
      | Fixed -> i >= t.len
      | Generator _ -> false
    in
    if stop then i
    else begin
      let acc = acc +. iat t i in
      if acc > until then i + 1 else count (i + 1) acc
    end
  in
  let n = count 0 0.0 in
  Array.init n (iat t)

let prefetch t ~until =
  match t.source with
  | Fixed -> ()  (* fully materialised by construction *)
  | Generator _ -> prefetch_from t ~until ~index:0 ~clock:(iat t 0)

type platform_event =
  | Node_lost of { at : float; survivors : int }
  | Node_joined of { at : float; survivors : int }

let event_at = function Node_lost { at; _ } | Node_joined { at; _ } -> at

let event_survivors = function
  | Node_lost { survivors; _ } | Node_joined { survivors; _ } -> survivors

let validate_platform_events events =
  let rec go prev = function
    | [] -> ()
    | e :: rest ->
        let at = event_at e in
        if not (Float.is_finite at && at >= 0.0) then
          invalid_arg
            "Trace.validate_platform_events: event times must be nonnegative \
             and finite";
        if at < prev then
          invalid_arg
            "Trace.validate_platform_events: event times must be \
             non-decreasing";
        if event_survivors e < 1 then
          invalid_arg "Trace.validate_platform_events: survivors < 1";
        go at rest
  in
  go 0.0 events

type node_model = {
  nodes : int;
  spares : int;
  loss_prob : float;
  rejoin_delay : float;
}

let validate_node_model m =
  if m.nodes < 1 then invalid_arg "Trace.platform: nodes < 1";
  if m.spares < 0 then invalid_arg "Trace.platform: spares < 0";
  if not (Float.is_finite m.loss_prob && m.loss_prob >= 0.0 && m.loss_prob <= 1.0)
  then invalid_arg "Trace.platform: loss_prob must lie in [0, 1]";
  if not (Float.is_finite m.rejoin_delay && m.rejoin_delay >= 0.0) then
    invalid_arg "Trace.platform: rejoin_delay must be nonnegative and finite"

(* One platform history from one RNG stream. Failures are drawn from the
   aggregate exponential of the currently-alive node count (equivalent
   to per-node draws by superposition; a rate change mid-gap redraws the
   remainder, which is exact by memorylessness). Failure IATs live on
   the exposed clock; event timestamps live on the wall clock, mapped by
   adding one downtime [d] per preceding failure — the clock the engine
   compares them against. A fatal failure of the last surviving node is
   treated as transient: the model never degrades below one node. *)
let platform_with_rng rng ~model ~rate ~d ~horizon =
  let per_node = rate /. float_of_int model.nodes in
  let iats = ref [] and events = ref [] in
  let alive = ref model.nodes and spares = ref model.spares in
  let exposed = ref 0.0 and wall = ref 0.0 in
  let since_last = ref 0.0 in
  (* Pending spare rejoin dates (wall clock); appended in non-decreasing
     order, so the head is always the earliest. *)
  let rejoins = ref [] in
  let last_fail_exposed = ref 0.0 in
  while !last_fail_exposed <= horizon do
    let gap =
      Numerics.Rng.exponential rng ~rate:(float_of_int !alive *. per_node)
    in
    match !rejoins with
    | wr :: rest when wr < !wall +. gap ->
        (* The spare comes up before the next failure: advance to it,
           then redraw at the new aggregate rate. [wr] can precede
           [wall] when the rejoin landed inside the last downtime — no
           time elapses then, only the rate changes. *)
        let dt = Float.max 0.0 (wr -. !wall) in
        exposed := !exposed +. dt;
        since_last := !since_last +. dt;
        wall := Float.max wr !wall;
        rejoins := rest;
        incr alive;
        events :=
          Node_joined { at = Float.max wr 0.0; survivors = !alive } :: !events
    | _ ->
        exposed := !exposed +. gap;
        since_last := !since_last +. gap;
        wall := !wall +. gap;
        iats := !since_last :: !iats;
        since_last := 0.0;
        last_fail_exposed := !exposed;
        let fatal = Numerics.Rng.float rng < model.loss_prob in
        let fail_wall = !wall in
        wall := !wall +. d;
        if fatal && !alive > 1 then begin
          decr alive;
          events := Node_lost { at = fail_wall; survivors = !alive } :: !events;
          if !spares > 0 then begin
            decr spares;
            rejoins := !rejoins @ [ !wall +. model.rejoin_delay ]
          end
        end
  done;
  let events = List.rev !events in
  validate_platform_events events;
  (of_iats (Array.of_list (List.rev !iats)), events)

let check_platform_args ~rate ~d ~horizon =
  if not (Float.is_finite rate && rate > 0.0) then
    invalid_arg "Trace.platform: rate must be positive and finite";
  if not (Float.is_finite d && d >= 0.0) then
    invalid_arg "Trace.platform: d must be nonnegative and finite";
  if not (Float.is_finite horizon && horizon >= 0.0) then
    invalid_arg "Trace.platform: horizon must be nonnegative and finite"

let platform ~model ~rate ~d ~horizon ~seed =
  validate_node_model model;
  check_platform_args ~rate ~d ~horizon;
  platform_with_rng (Numerics.Rng.create ~seed) ~model ~rate ~d ~horizon

let platform_batch ~model ~rate ~d ~horizon ~seed ~n =
  if n < 0 then invalid_arg "Trace.platform_batch: n < 0";
  validate_node_model model;
  check_platform_args ~rate ~d ~horizon;
  let master = Numerics.Rng.create ~seed in
  Array.init n (fun _ ->
      let sub = Numerics.Rng.split master in
      platform_with_rng sub ~model ~rate ~d ~horizon)
