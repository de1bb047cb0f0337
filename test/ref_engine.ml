(* The simulation engine and the list-based plan producers as they
   stood before plans moved into a reusable buffer, frozen verbatim as
   the reference for the differential test (test_engine_diff.ml). Only
   the policy type is local: a reference policy returns its plan as a
   fresh list. Outcomes are built as [Sim.Engine] values so the two
   engines can be compared field by field. Do not "fix" this file: its
   whole point is to stay what the engine was. *)

module E = Sim.Engine

type policy = {
  name : string;
  plan : tleft:float -> recovering:bool -> float list;
  adapt : (Fault.Params.t -> policy) option;
  on_prediction :
    (tleft:float -> since_commit:float -> window:float -> bool) option;
}

let make ~name plan = { name; plan; adapt = None; on_prediction = None }

(* A buffer-based policy seen through the list contract (for families
   whose producers are not frozen here). *)
let rec of_policy (p : Sim.Policy.t) =
  {
    name = p.Sim.Policy.name;
    plan = Plans.of_policy p;
    adapt =
      Option.map (fun f params -> of_policy (f params)) p.Sim.Policy.adapt;
    on_prediction = p.Sim.Policy.on_prediction;
  }

let eps = 1e-9

let validate_plan ~params ~tleft ~recovering plan =
  let c = params.Fault.Params.c and r = params.Fault.Params.r in
  let base = if recovering then r else 0.0 in
  let fail fmt = Format.kasprintf invalid_arg fmt in
  let rec check prev = function
    | [] -> ()
    | off :: rest ->
        if off > tleft +. eps then
          fail "plan: checkpoint completion %g exceeds tleft %g" off tleft;
        if prev = 0.0 && off < base +. c -. eps then
          fail "plan: first checkpoint %g before base %g + C %g" off base c;
        if prev > 0.0 && off -. prev < c -. eps then
          fail "plan: segment [%g, %g] shorter than C = %g" prev off c;
        if off <= prev then fail "plan: offsets not increasing at %g" off;
        check off rest
  in
  check 0.0 plan

(* {2 Frozen list producers} *)

let equal_plan ~params ~tleft ~recovering ~count =
  let c = params.Fault.Params.c and r = params.Fault.Params.r in
  let base = if recovering then r else 0.0 in
  let span = tleft -. base in
  if span < c || count < 1 then []
  else begin
    let n = min count (int_of_float (floor (span /. c))) in
    let n = max n 1 in
    let seg = span /. float_of_int n in
    List.init n (fun i -> base +. (float_of_int (i + 1) *. seg))
  end

let of_threshold_table ~params table =
  make ~name:"Threshold" (fun ~tleft ~recovering ->
      let span =
        if recovering then tleft -. params.Fault.Params.r else tleft
      in
      if span < params.Fault.Params.c then []
      else
        let count = Core.Threshold.segments_for table ~tleft:span in
        if count < 1 then invalid_arg "Policy.equal_segments: count < 1";
        equal_plan ~params ~tleft ~recovering ~count)

let two_checkpoints ~params ~alpha =
  let c = params.Fault.Params.c and r = params.Fault.Params.r in
  make ~name:"Two" (fun ~tleft ~recovering ->
      let base = if recovering then r else 0.0 in
      let span = tleft -. base in
      if span < 2.0 *. c then if span < c then [] else [ tleft ]
      else begin
        let first = base +. (alpha *. span) in
        let first = Float.max (base +. c) (Float.min first (tleft -. c)) in
        [ first; tleft ]
      end)

let periodic ~params ~period =
  let c = params.Fault.Params.c and r = params.Fault.Params.r in
  make ~name:"Periodic" (fun ~tleft ~recovering ->
      let base = if recovering then r else 0.0 in
      if tleft -. base < c then []
      else begin
        let stride = period +. c in
        let rec build acc last =
          let rem = tleft -. last in
          if rem <= stride +. c then
            if rem < c then List.rev acc else List.rev (tleft :: acc)
          else build ((last +. stride) :: acc) (last +. stride)
        in
        build [] base
      end)

let with_slack ~params ~slack policy =
  let c = params.Fault.Params.c and r = params.Fault.Params.r in
  let plan ~tleft ~recovering =
    match policy.plan ~tleft ~recovering with
    | [] -> []
    | offsets ->
        let rec shift = function
          | [] -> []
          | [ last ] ->
              let base = if recovering then r else 0.0 in
              let floor_ = base +. c in
              [ Float.max floor_ (last -. slack) ]
          | prev :: (_ :: _ as rest) -> (
              match shift rest with
              | [ shifted ] when shifted < prev +. c ->
                  prev :: [ Float.max (prev +. c) shifted ]
              | shifted -> prev :: shifted)
        in
        shift offsets
  in
  { policy with name = policy.name ^ "+slack"; plan }

(* The Section 6 DP policy over the public table accessors. *)
let dp_policy ~params dp =
  let u = Core.Dp.quantum dp and tstar = Core.Dp.horizon_quanta dp in
  let kmax = Core.Dp.kmax dp in
  let clamp_n tleft =
    let n = int_of_float (floor ((tleft /. u) +. 1e-9)) in
    if n < 0 then 0 else min n tstar
  in
  let plan_q ~n ~k ~delta =
    let rec go n k delta acc base =
      if k = 0 then List.rev acc
      else begin
        let ib = Core.Dp.first_checkpoint_q dp ~n ~k ~delta in
        if ib = 0 then List.rev acc
        else go (n - ib) (k - 1) false ((base + ib) :: acc) (base + ib)
      end
    in
    go n k delta [] 0
  in
  let last : (float * float list * int) option ref = ref None in
  let to_offsets quanta = List.map (fun q -> float_of_int q *. u) quanta in
  let plan ~tleft ~recovering =
    let n = clamp_n tleft in
    if n = 0 then []
    else if not recovering then begin
      let k = Core.Dp.best_k dp ~n ~delta:false in
      if k = 0 then []
      else begin
        let offsets = to_offsets (plan_q ~n ~k ~delta:false) in
        last := Some (tleft, offsets, k);
        offsets
      end
    end
    else begin
      let k_cap =
        match !last with
        | None -> kmax
        | Some (prev_tleft, offsets, k_prev) ->
            let elapsed = prev_tleft -. tleft -. params.Fault.Params.d in
            let completed =
              List.length (List.filter (fun o -> o <= elapsed +. 1e-9) offsets)
            in
            max 1 (k_prev - completed)
      in
      let m = Core.Dp.arg_best_m dp ~n ~k:(min k_cap kmax) in
      if m = 0 then []
      else begin
        let offsets = to_offsets (plan_q ~n ~k:m ~delta:true) in
        last := Some (tleft, offsets, m);
        offsets
      end
    end
  in
  make ~name:"DynamicProgramming" plan

(* {2 Frozen engine} *)

(* The failure-trace cursor the frozen engine walks. *)
type cursor = {
  trace : Fault.Trace.t;
  mutable index : int;
  mutable clock : float;
}

let cursor trace = { trace; index = 0; clock = Fault.Trace.iat trace 0 }
let next_failure_exposed cur = cur.clock

let consume cur =
  cur.index <- cur.index + 1;
  cur.clock <- cur.clock +. Fault.Trace.iat cur.trace cur.index

let run ?(record = false) ?ckpt_sampler ?platform ?predictions ?proactive_c
    ~params ~horizon ~policy trace =
  if horizon < 0.0 then invalid_arg "Engine.run: negative horizon";
  let c = params.Fault.Params.c
  and r = params.Fault.Params.r
  and d = params.Fault.Params.d in
  let cp =
    match proactive_c with
    | None -> c
    | Some v ->
        if not (Float.is_finite v) || v < 0.0 || v > c then
          invalid_arg "Engine.run: proactive_c must be finite in [0, C]";
        v
  in
  let initial =
    match platform with
    | None -> 1
    | Some p ->
        if p.E.initial < 1 then invalid_arg "Engine.run: platform initial < 1";
        Fault.Trace.validate_platform_events p.E.events;
        p.E.initial
  in
  (* Events at or past the horizon can never re-plan anything. *)
  let pending =
    ref
      (match platform with
      | None -> []
      | Some p ->
          List.filter (fun e -> Fault.Trace.event_at e < horizon) p.E.events)
  in
  (* Like platform events: predictions at or past the horizon can never
     matter (the fault they announce cannot strike inside the run). *)
  let pq =
    ref
      (match predictions with
      | None -> []
      | Some evs ->
          Fault.Predictor.validate_events evs;
          List.filter
            (fun (ev : Fault.Predictor.event) -> ev.Fault.Predictor.at < horizon)
            evs)
  in
  let cur = cursor trace in
  let wall = ref 0.0 and exposed = ref 0.0 in
  let saved = ref 0.0 and ckpts = ref 0 and fails = ref 0 and replans = ref 0 in
  let replans_platform = ref 0 in
  let preds_true = ref 0 and preds_false = ref 0 and proactive = ref 0 in
  let cur_policy = ref policy in
  let recovering = ref false in
  let b_ckpt = ref 0.0 and b_recov = ref 0.0 and b_down = ref 0.0 in
  let b_lost = ref 0.0 in
  let events = ref [] in
  let push e = if record then events := e :: !events in
  let draw_ckpt () = match ckpt_sampler with None -> c | Some f -> f () in
  let finished = ref false in
  while not !finished do
    (* Platform events due by now (including any that landed during the
       last downtime) take effect before the next plan is drawn: the
       params are degraded to the surviving node count and an adaptive
       policy re-compiles itself against them. *)
    (let rec take () =
       match !pending with
       | e :: rest when Fault.Trace.event_at e <= !wall ->
           pending := rest;
           let survivors = Fault.Trace.event_survivors e in
           incr replans_platform;
           push
             (E.Platform_change { at = Fault.Trace.event_at e; survivors });
           (match !cur_policy.adapt with
           | Some f ->
               cur_policy := f (Fault.Params.degrade params ~initial ~survivors)
           | None -> ());
           take ()
       | _ -> ()
     in
     take ());
    let tleft = horizon -. !wall in
    let plan = !cur_policy.plan ~tleft ~recovering:!recovering in
    incr replans;
    validate_plan ~params ~tleft ~recovering:!recovering plan;
    (match plan with
    | [] ->
        push (E.Gave_up { at = !wall });
        finished := true
    | offsets ->
        let plan_start_wall = !wall in
        let committed_wall = ref !wall in
        let first_overhead = if !recovering then r else 0.0 in
        (* [shift] accumulates the deviation of actual checkpoint
           durations from the nominal C (stochastic-checkpoint mode;
           zero otherwise). *)
        let rec walk prev_off shift segs ~first =
          match segs with
          | [] -> finished := true
          | off :: rest -> (
              let nominal_len = off -. prev_off in
              let actual_c = draw_ckpt () in
              let shift' = shift +. (actual_c -. c) in
              let seg_len = nominal_len +. (shift' -. shift) in
              let completion_wall = plan_start_wall +. off +. shift' in
              let seg_end_e = !exposed +. seg_len in
              (* Ignored predictions cost no time, so the segment is
                 re-attempted with the same clocks and the same drawn
                 checkpoint duration until something observable happens. *)
              let rec attempt () =
              let fail_e = next_failure_exposed cur in
              let fail_wall = !wall +. (fail_e -. !exposed) in
              let next_event_wall =
                match !pending with
                | [] -> infinity
                | e :: _ -> Fault.Trace.event_at e
              in
              (* An overdue prediction (announced before the clocks got
                 here, e.g. clamped to 0 or landed inside a downtime)
                 fires immediately. *)
              let pred_e =
                match !pq with
                | [] -> infinity
                | ev :: _ -> Float.max ev.Fault.Predictor.at !exposed
              in
              let pred_wall = !wall +. (pred_e -. !exposed) in
              if
                next_event_wall < fail_wall
                && next_event_wall < completion_wall
                && next_event_wall <= pred_wall
              then begin
                (* A platform event interrupts the plan before this
                   checkpoint completes (and before the next failure):
                   advance both clocks to the event and fall back to the
                   re-planning loop, which consumes it. The in-flight
                   span since the last commit is abandoned — it lands in
                   the [unused] share. *)
                let delta = Float.max 0.0 (next_event_wall -. !wall) in
                wall := !wall +. delta;
                exposed := !exposed +. delta
              end
              else if pred_e < fail_e && pred_wall < completion_wall then begin
                (* A prediction fires before this checkpoint completes
                   and before the next failure. The policy's hook never
                   sees [true_positive] — there is no oracle. *)
                let ev = List.hd !pq in
                pq := List.tl !pq;
                if ev.Fault.Predictor.true_positive then incr preds_true
                else incr preds_false;
                push
                  (E.Prediction
                     { at = pred_wall;
                       true_positive = ev.Fault.Predictor.true_positive });
                let since_commit = pred_wall -. !committed_wall in
                let overhead = if first then first_overhead else 0.0 in
                (* The bankable work: what has elapsed since the last
                   commit, net of the initial recovery, capped by the
                   segment's work share (a prediction landing inside the
                   in-flight nominal checkpoint cannot bank checkpoint
                   time as work — the excess is abandoned into
                   [unused]). *)
                let seg_work = Float.max 0.0 (seg_len -. actual_c -. overhead) in
                let work =
                  Float.min (Float.max 0.0 (since_commit -. overhead)) seg_work
                in
                let take =
                  work > 0.0
                  && pred_wall +. cp <= horizon
                  &&
                  match !cur_policy.on_prediction with
                  | None -> false
                  | Some f ->
                      f ~tleft:(horizon -. pred_wall) ~since_commit
                        ~window:ev.Fault.Predictor.window
                in
                if not take then
                  (* Ignored (by the policy, or nothing to bank, or no
                     room left): zero time cost, same segment again. *)
                  attempt ()
                else begin
                  (* Proactive checkpoint: advance to the firing instant
                     and checkpoint for [cp], exposed to failures. *)
                  let delta = pred_e -. !exposed in
                  wall := !wall +. delta;
                  exposed := pred_e;
                  let ckpt_end_e = !exposed +. cp in
                  if fail_e < ckpt_end_e then begin
                    (* The announced (or another) fault strikes before
                       the proactive checkpoint completes: everything
                       since the last commit is lost, as usual. *)
                    let delta = fail_e -. !exposed in
                    wall := !wall +. delta;
                    exposed := fail_e;
                    incr fails;
                    let lost = !wall -. !committed_wall in
                    b_lost := !b_lost +. lost;
                    push (E.Failure { at = !wall; lost });
                    b_down :=
                      !b_down +. Float.max 0.0 (Float.min d (horizon -. !wall));
                    wall := !wall +. d;
                    recovering := true;
                    if horizon -. !wall < r +. c then finished := true
                    else consume cur
                  end
                  else begin
                    wall := !wall +. cp;
                    exposed := ckpt_end_e;
                    saved := !saved +. work;
                    b_ckpt := !b_ckpt +. cp;
                    if first then begin
                      (* [work > 0] implies the initial recovery fully
                         elapsed before the prediction fired; commit it
                         with this checkpoint. *)
                      b_recov := !b_recov +. first_overhead;
                      recovering := false
                    end;
                    incr ckpts;
                    incr proactive;
                    push
                      (E.Segment_saved
                         { start = !committed_wall; finish = !wall; work });
                    committed_wall := !wall;
                    (* Abandon the rest of the plan and fall back to the
                       re-planning loop: the policy re-plans the
                       remaining horizon from the fresh commit. *)
                    ()
                  end
                end
              end
              else if fail_e < seg_end_e then begin
                (* Failure strikes before this checkpoint completes. *)
                let delta = fail_e -. !exposed in
                wall := !wall +. delta;
                exposed := fail_e;
                incr fails;
                let lost = !wall -. !committed_wall in
                b_lost := !b_lost +. lost;
                push (E.Failure { at = !wall; lost });
                (* A stochastic-checkpoint shift can push [wall] past the
                   horizon before the failure strikes; the downtime share
                   is then empty, not negative. *)
                b_down := !b_down +. Float.max 0.0 (Float.min d (horizon -. !wall));
                wall := !wall +. d;
                recovering := true;
                if horizon -. !wall < r +. c then finished := true
                else consume cur
              end
              else if completion_wall > horizon then begin
                (* Stochastic checkpoint overran the reservation: this
                   checkpoint (and a fortiori the following ones) can no
                   longer complete. *)
                push (E.Gave_up { at = horizon });
                finished := true
              end
              else begin
                let overhead = actual_c +. (if first then first_overhead else 0.0) in
                let work = Float.max 0.0 (seg_len -. overhead) in
                saved := !saved +. work;
                b_ckpt := !b_ckpt +. actual_c;
                if first then begin
                  b_recov := !b_recov +. first_overhead;
                  (* The recovery (if any) is committed with the first
                     checkpoint: a plan started by a later platform
                     event continues from here without re-recovering. *)
                  recovering := false
                end;
                incr ckpts;
                wall := !wall +. seg_len;
                committed_wall := !wall;
                exposed := seg_end_e;
                push
                  (E.Segment_saved
                     { start = !wall -. seg_len; finish = !wall; work });
                walk off shift' rest ~first:false
              end
              in
              attempt ())
        in
        walk 0.0 0.0 offsets ~first:true)
  done;
  let breakdown =
    let accounted = !saved +. !b_ckpt +. !b_recov +. !b_down +. !b_lost in
    let unused = horizon -. accounted in
    (* A downtime can overrun the horizon; clip it rather than report a
       negative unused share. *)
    if unused < 0.0 then
      {
        E.working = !saved;
        checkpointing = !b_ckpt;
        recovering = !b_recov;
        down = Float.max 0.0 (!b_down +. unused);
        lost = !b_lost;
        unused = 0.0;
      }
    else
      {
        E.working = !saved;
        checkpointing = !b_ckpt;
        recovering = !b_recov;
        down = !b_down;
        lost = !b_lost;
        unused;
      }
  in
  {
    E.work_saved = !saved;
    checkpoints = !ckpts;
    failures = !fails;
    replans = !replans;
    replans_platform = !replans_platform;
    predictions_true = !preds_true;
    predictions_false = !preds_false;
    proactive_checkpoints = !proactive;
    breakdown;
    events = List.rev !events;
  }

