(* Differential test: Sim.Engine.run against the frozen list-based
   engine of Ref_engine. Random parameters, horizons and traces; every
   policy family; platform schedules, prediction streams (hooked and
   unhooked), Erlang checkpoint samplers and proactive costs; one
   compiled policy reused across several runs, as Runner.evaluate does.
   The two engines must agree to the last bit on every counter, the
   saved work, the six breakdown shares and the recorded events. *)

module E = Sim.Engine
module R = Ref_engine
module S = Experiments.Spec
module St = Experiments.Strategy

(* {2 Bitwise outcome comparison} *)

let bits = Int64.bits_of_float

let event_key = function
  | E.Segment_saved { start; finish; work } ->
      (0, [ bits start; bits finish; bits work ], 0)
  | E.Failure { at; lost } -> (1, [ bits at; bits lost ], 0)
  | E.Gave_up { at } -> (2, [ bits at ], 0)
  | E.Platform_change { at; survivors } -> (3, [ bits at ], survivors)
  | E.Prediction { at; true_positive } ->
      (4, [ bits at ], Bool.to_int true_positive)

let outcome_key (o : E.outcome) =
  let b = o.E.breakdown in
  ( List.map bits
      [
        o.E.work_saved; b.E.working; b.E.checkpointing; b.E.recovering;
        b.E.down; b.E.lost; b.E.unused;
      ],
    [
      o.E.checkpoints; o.E.failures; o.E.replans; o.E.replans_platform;
      o.E.predictions_true; o.E.predictions_false; o.E.proactive_checkpoints;
    ],
    List.map event_key o.E.events )

let attempt f =
  match f () with
  | o -> Ok (outcome_key o)
  | exception e -> Error (Printexc.to_string e)

(* {2 Cases} *)

let families =
  [|
    "young-daly"; "first-order"; "numerical-optimum"; "dp"; "dp-capped";
    "optimal"; "renewal-dp"; "variable-segments"; "slack"; "two-checkpoints";
    "restart"; "predicted-young-daly"; "proactive-window";
    "adaptive-young-daly"; "adaptive-dp";
  |]

type case = {
  lambda : float;
  c : int;
  r : int;
  d : int;
  horizon : float;
  family : int;
  knob : float;  (** family argument in [0, 1): slack, alpha, recall, window *)
  seed : int;
  runs : int;  (** runs sharing one compiled policy *)
  nodes : (int * int * float * float) option;
      (** platform: nodes, spares, loss probability, rejoin delay *)
  predictor : (float * float * float) option;  (** precision, recall, window *)
  hooked : bool;  (** add a prediction hook to a hook-less family *)
  erlang : int option;  (** Erlang checkpoint-duration shape *)
  proactive : float option;  (** proactive cost, as a fraction of C *)
  record : bool;
}

let print_case k =
  let opt f = function None -> "-" | Some x -> f x in
  Printf.sprintf
    "lambda=%g c=%d r=%d d=%d T=%g %s knob=%g seed=%d runs=%d platform=%s \
     predictor=%s hooked=%b erlang=%s proactive=%s record=%b"
    k.lambda k.c k.r k.d k.horizon families.(k.family) k.knob k.seed k.runs
    (opt (fun (n, s, l, j) -> Printf.sprintf "%d/%d/%g/%g" n s l j) k.nodes)
    (opt (fun (p, r, w) -> Printf.sprintf "%g/%g/%g" p r w) k.predictor)
    k.hooked (opt string_of_int k.erlang) (opt string_of_float k.proactive)
    k.record

(* The cubic renewal DP and the per-state optimiser of
   variable-segments get the shorter horizons; the families whose
   tables cost nothing get long ones, so their plans outgrow the plan
   buffer's initial 16 slots mid-run. *)
let horizon_cap = function
  | "renewal-dp" -> 120
  | "variable-segments" -> 40
  | "young-daly" | "first-order" -> 3000
  | _ -> 300

let gen_case =
  let open QCheck.Gen in
  let* lambda = float_range 0.001 0.04 in
  let* c = int_range 1 20 in
  let* r = int_range 0 c in
  let* d = int_range 0 10 in
  let* family = int_bound (Array.length families - 1) in
  let top = horizon_cap families.(family) in
  let* horizon = int_range (c + 1) top in
  let* frac = oneofl [ 0.0; 0.25; 0.5 ] in
  let* knob = float_range 0.05 0.95 in
  let* seed = int_bound 1_000_000 in
  let* runs = int_range 1 3 in
  let* nodes =
    opt
      (quad (int_range 1 16) (int_range 0 3) (float_range 0.0 1.0)
         (float_range 0.0 50.0))
  in
  let* predictor =
    opt
      (triple (float_range 0.1 1.0) (float_range 0.0 1.0)
         (float_range 0.0 40.0))
  in
  let* hooked = bool in
  let* erlang = opt (int_range 1 4) in
  let* proactive = opt (float_range 0.0 1.0) in
  let* record = bool in
  return
    {
      lambda; c; r; d; horizon = float_of_int horizon +. frac; family; knob;
      seed; runs; nodes; predictor; hooked; erlang; proactive; record;
    }

let arb_case = QCheck.make ~print:print_case gen_case

(* The family's policy twice: compiled through the strategy registry (or
   built by the library), and as the reference sees it — the frozen list
   producer where one exists, otherwise a separately compiled instance
   read through the list contract. *)
let policies k ~params =
  let horizon = k.horizon in
  let dist = Fault.Trace.Exponential { rate = k.lambda } in
  let cache = St.Cache.create () in
  let compile s =
    St.ensure cache ~params ~horizon ~dist [ s ];
    St.compile_exn cache ~params ~horizon ~dist s
  in
  let dp () =
    Core.Dp.build
      ~kmax:(Core.Dp.suggested_kmax ~params ~horizon)
      ~params ~quantum:1.0 ~horizon ()
  in
  let both s = (compile s, R.of_policy (compile s)) in
  let yd () =
    R.periodic ~params ~period:(Core.Model.young_daly_period params)
  in
  let hook f p = { p with R.on_prediction = Some f } in
  match families.(k.family) with
  | "young-daly" -> (compile S.Young_daly, yd ())
  | "first-order" ->
      ( compile S.First_order,
        R.of_threshold_table ~params
          (Core.Threshold.table_first_order ~params ~up_to:horizon) )
  | "numerical-optimum" ->
      ( compile S.Numerical_optimum,
        R.of_threshold_table ~params
          (Core.Threshold.table_numerical ~params ~up_to:horizon) )
  | "dp" ->
      ( compile (S.Dynamic_programming { quantum = 1.0 }),
        R.dp_policy ~params (dp ()) )
  | "dp-capped" ->
      (* A tight kmax makes the outstanding-checkpoint bound of
         Equation (8) bind after failures, which the suggested kmax of
         the registry almost never does. *)
      let kmax = 2 + (k.seed mod 3) in
      let table = Core.Dp.build ~kmax ~params ~quantum:1.0 ~horizon () in
      (Core.Dp.policy table, R.dp_policy ~params table)
  | "optimal" -> both (S.Optimal_unrestricted { quantum = 1.0 })
  | "renewal-dp" -> both (S.Renewal_dp { quantum = 1.0 })
  | "variable-segments" -> both S.Variable_segments
  | "slack" ->
      let slack = 2.0 *. float_of_int k.c *. k.knob in
      if k.seed mod 2 = 0 then
        ( Core.Slack.with_slack ~params ~slack (compile S.Young_daly),
          R.with_slack ~params ~slack (yd ()) )
      else
        ( Core.Slack.with_slack ~params ~slack
            (compile (S.Dynamic_programming { quantum = 1.0 })),
          R.with_slack ~params ~slack (R.dp_policy ~params (dp ())) )
  | "two-checkpoints" ->
      ( Sim.Policy.two_checkpoints ~params ~alpha:k.knob,
        R.two_checkpoints ~params ~alpha:k.knob )
  | "restart" -> both S.Restart
  | "predicted-young-daly" ->
      let recall = if k.seed mod 3 = 0 then 1.0 else k.knob in
      let period =
        if Float.equal recall 1.0 then infinity
        else
          sqrt
            (2.0 *. Fault.Params.mtbf params *. params.Fault.Params.c
            /. (1.0 -. recall))
      in
      ( compile (S.Predicted_young_daly { p = 1.0; r = recall }),
        hook
          (fun ~tleft:_ ~since_commit:_ ~window:_ -> true)
          (R.periodic ~params ~period) )
  | "proactive-window" ->
      let w = 40.0 *. k.knob in
      ( compile (S.Proactive_window { w }),
        hook
          (fun ~tleft:_ ~since_commit:_ ~window -> window <= w)
          (R.dp_policy ~params (dp ())) )
  | "adaptive-young-daly" -> both (S.Adaptive S.Young_daly)
  | "adaptive-dp" -> both (S.Adaptive (S.Dynamic_programming { quantum = 1.0 }))
  | f -> invalid_arg f

(* A hook for families that have none: bank the work when it exceeds
   the announced window. *)
let extra_hook ~tleft:_ ~since_commit ~window = since_commit > window

let sampler k ~seed =
  Option.map
    (fun shape ->
      let rng = Numerics.Rng.create ~seed in
      fun () ->
        Numerics.Rng.gamma_int rng ~shape
          ~scale:(float_of_int k.c /. float_of_int shape))
    k.erlang

let agrees k =
  let params =
    Fault.Params.make ~lambda:k.lambda ~c:(float_of_int k.c)
      ~r:(float_of_int k.r) ~d:(float_of_int k.d)
  in
  let policy, reference = policies k ~params in
  let policy, reference =
    if k.hooked && policy.Sim.Policy.on_prediction = None then
      ( Sim.Policy.set_on_prediction policy extra_hook,
        { reference with R.on_prediction = Some extra_hook } )
    else (policy, reference)
  in
  let proactive_c = Option.map (fun f -> f *. float_of_int k.c) k.proactive in
  let horizon = k.horizon in
  List.for_all
    (fun i ->
      let seed = Int64.of_int ((k.seed * 7) + i) in
      let trace, platform =
        match k.nodes with
        | None ->
            let dist = Fault.Trace.Exponential { rate = k.lambda } in
            (Fault.Trace.create ~dist ~seed, None)
        | Some (nodes, spares, loss_prob, rejoin_delay) ->
            let model =
              { Fault.Trace.nodes; spares; loss_prob; rejoin_delay }
            in
            let trace, events =
              Fault.Trace.platform ~model ~rate:k.lambda ~d:(float_of_int k.d)
                ~horizon ~seed
            in
            (trace, Some { E.initial = nodes; events })
      in
      let predictions =
        Option.map
          (fun (p, r, w) ->
            Fault.Predictor.events ~params:{ Fault.Predictor.p; r; w }
              ~rate:k.lambda ~horizon ~seed:(Int64.add seed 1L) trace)
          k.predictor
      in
      let sampler_seed = Int64.add seed 2L in
      let got =
        attempt (fun () ->
            E.run ~record:k.record
              ?ckpt_sampler:(sampler k ~seed:sampler_seed)
              ?platform ?predictions ?proactive_c ~params ~horizon ~policy
              trace)
      in
      let want =
        attempt (fun () ->
            R.run ~record:k.record ?ckpt_sampler:(sampler k ~seed:sampler_seed)
              ?platform ?predictions ?proactive_c ~params ~horizon
              ~policy:reference trace)
      in
      got = want)
    (List.init k.runs Fun.id)

let test_bit_identical =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"engine bit-identical to the list reference"
       ~count:1000 arb_case agrees)

(* Every family at least once on a fixed, failure-heavy point, so a
   family the random draw happens to miss is still compared. *)
let test_every_family () =
  Array.iteri
    (fun family name ->
      let k =
        {
          lambda = 0.02; c = 6; r = 4; d = 3;
          horizon = float_of_int (min 240 (horizon_cap name)) +. 0.5; family;
          knob = 0.4; seed = 17 + family; runs = 3;
          nodes = Some (8, 2, 0.5, 20.0); predictor = Some (0.7, 0.6, 15.0);
          hooked = true; erlang = Some 3; proactive = Some 0.5; record = true;
        }
      in
      if not (agrees k) then
        Alcotest.failf "%s differs from the reference" name)
    families

(* {2 Paper plan writers against the frozen producers}

   The plans of the four paper policies, bit for bit, against the frozen
   list producers of Ref_engine (the DP against [Optimal.plan_q] scaled
   by the quantum), read through a fresh buffer and through one buffer
   shared by every query, so each plan overwrites a longer or shorter
   one. The times left sit where the writers branch: a periodic span
   that ends exactly [stride + C] or [C] past a checkpoint (the
   checkpoint dates accumulated as the writer accumulates them), a span
   on a threshold or on a multiple of C, a whole number of quanta; each
   also one ulp either side. *)

type writer = {
  label : string;
  policy : Sim.Policy.t;
  reference : tleft:float -> recovering:bool -> float list;
}

let same_bits got want =
  List.length got = List.length want
  && List.for_all2 (fun a b -> Int64.equal (bits a) (bits b)) got want

let optimal_reference table ~tleft ~recovering =
  let u = Core.Optimal.quantum table in
  let n = int_of_float (floor ((tleft /. u) +. 1e-9)) in
  let n = if n < 0 then 0 else min n (Core.Optimal.horizon_quanta table) in
  if n = 0 then []
  else
    List.map
      (fun q -> float_of_int q *. u)
      (Core.Optimal.plan_q table ~n ~delta:recovering)

let paper_writers ~params ~quantum ~horizon ~numerical_up_to =
  let first_order = Core.Threshold.table_first_order ~params ~up_to:horizon in
  let numerical = Core.Threshold.table_numerical ~params ~up_to:numerical_up_to in
  let optimal = Core.Optimal.build ~params ~quantum ~horizon () in
  let period = Core.Model.young_daly_period params in
  let listed (p : R.policy) = p.R.plan in
  [
    {
      label = "YoungDaly";
      policy = Core.Policies.young_daly ~params;
      reference = listed (R.periodic ~params ~period);
    };
    {
      label = "FirstOrder";
      policy =
        Core.Policies.of_threshold_table ~name:"FirstOrder" ~params first_order;
      reference = listed (R.of_threshold_table ~params first_order);
    };
    {
      label = "NumericalOptimum";
      policy =
        Core.Policies.of_threshold_table ~name:"NumericalOptimum" ~params
          numerical;
      reference = listed (R.of_threshold_table ~params numerical);
    };
    {
      label = "DynamicProgramming";
      policy = Core.Optimal.policy optimal;
      reference = optimal_reference optimal;
    };
  ]

let around x = [ Float.pred x; x; Float.succ x ]

(* Times left on every branch boundary of the writers: for the periodic
   plans, after each of the first 20 checkpoints, then every [every]-th
   up to [strides]. *)
let boundary_tlefts ~params ~quantum ~strides ~every ~thresholds =
  let c = params.Fault.Params.c and r = params.Fault.Params.r in
  let stride = Core.Model.young_daly_period params +. c in
  let periodic base =
    (* The writer's own checkpoint dates: base, base + stride, ... *)
    let rec go acc last k =
      if k > strides then acc
      else
        let acc =
          if k <= 20 || k mod every = 0 || k = strides then
            around (last +. (stride +. c)) @ around (last +. c) @ acc
          else acc
        in
        go acc (last +. stride) (k + 1)
    in
    go [] base 0
  in
  let spans base =
    List.concat_map
      (fun t -> around (base +. t))
      (Array.to_list thresholds
      @ List.init 12 (fun m -> float_of_int (m + 1) *. c))
  in
  let quanta =
    List.concat_map
      (fun n -> around (float_of_int n *. quantum))
      [ 0; 1; 2; 3; 7; 16; 17; 100; 999 ]
  in
  List.filter
    (fun t -> t >= 0.0)
    (periodic 0.0 @ periodic r @ spans 0.0 @ spans r @ quanta)

let writers_agree writers tlefts =
  let shared = Sim.Plan.create () in
  List.for_all
    (fun w ->
      List.for_all
        (fun tleft ->
          List.for_all
            (fun recovering ->
              let want = w.reference ~tleft ~recovering in
              let fresh = Plans.of_policy w.policy ~tleft ~recovering in
              w.policy.Sim.Policy.plan shared ~tleft ~recovering;
              let reused = Sim.Plan.to_list shared in
              (same_bits fresh want && same_bits reused want)
              || QCheck.Test.fail_reportf
                   "%s tleft=%h recovering=%b: %d offsets (fresh), %d \
                    (reused), reference %d"
                   w.label tleft recovering (List.length fresh)
                   (List.length reused) (List.length want))
            [ false; true ])
        tlefts)
    writers

let gen_writer_case =
  let open QCheck.Gen in
  let* lambda = float_range 0.0005 0.05 in
  let* c = float_range 0.5 20.0 in
  let* r = oneof [ return 0.0; float_range 0.0 20.0 ] in
  let* quantum = oneofl [ 1.0; 0.5; 2.0; 0.75; 0.3; 1.7 ] in
  let* horizon = float_range (c +. 1.0) 600.0 in
  return (lambda, c, r, quantum, horizon)

let test_writers_bit_identical =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"paper writers bit-identical to the frozen producers"
       ~count:150
       (QCheck.make gen_writer_case ~print:(fun (l, c, r, u, h) ->
            Printf.sprintf "lambda=%h c=%h r=%h quantum=%g horizon=%h" l c r u
              h))
       (fun (lambda, c, r, quantum, horizon) ->
         let params = Fault.Params.make ~lambda ~c ~r ~d:1.0 in
         let writers =
           paper_writers ~params ~quantum ~horizon
             ~numerical_up_to:(Float.min horizon 300.0)
         in
         let thresholds =
           (Core.Threshold.table_first_order ~params ~up_to:horizon)
             .Core.Threshold.thresholds
         in
         writers_agree writers
           (horizon
           :: boundary_tlefts ~params ~quantum ~strides:40 ~every:1 ~thresholds)))

(* Plans far past the buffer's 16 initial slots: over 10^4 periodic and
   threshold offsets, hundreds of DP ones. *)
let test_long_plans () =
  let params = Fault.Params.make ~lambda:0.05 ~c:1.0 ~r:0.5 ~d:1.0 in
  let horizon = 1.2e5 in
  let first_order = Core.Threshold.table_first_order ~params ~up_to:horizon in
  let writers =
    paper_writers ~params ~quantum:0.5 ~horizon:1000.0 ~numerical_up_to:200.0
    |> List.map (fun w ->
           if w.label = "FirstOrder" then
             {
               w with
               policy =
                 Core.Policies.of_threshold_table ~name:"FirstOrder" ~params
                   first_order;
               reference = (R.of_threshold_table ~params first_order).R.plan;
             }
           else w)
  in
  let tlefts =
    [ 1000.0; 5000.0; 9.9e4; horizon ]
    @ boundary_tlefts ~params ~quantum:0.5 ~strides:16_000 ~every:1999
        ~thresholds:[||]
    |> List.filter (fun t -> t <= horizon)
  in
  let longest =
    List.fold_left
      (fun acc w ->
        max acc
          (List.length (Plans.of_policy w.policy ~tleft:horizon ~recovering:false)))
      0 writers
  in
  if longest < 10_000 then Alcotest.failf "longest plan %d < 10^4" longest;
  if not (writers_agree writers tlefts) then
    Alcotest.fail "writers differ from the frozen producers"

let () =
  Alcotest.run "engine_diff"
    [
      ( "differential",
        [
          Alcotest.test_case "every family" `Quick test_every_family;
          test_bit_identical;
        ] );
      ( "writers",
        [
          test_writers_bit_identical;
          Alcotest.test_case "long plans" `Quick test_long_plans;
        ] );
    ]
