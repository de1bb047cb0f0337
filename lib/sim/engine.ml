type event =
  | Segment_saved of { start : float; finish : float; work : float }
  | Failure of { at : float; lost : float }
  | Gave_up of { at : float }
  | Platform_change of { at : float; survivors : int }
  | Prediction of { at : float; true_positive : bool }

type platform = { initial : int; events : Fault.Trace.platform_event list }

type breakdown = {
  working : float;
  checkpointing : float;
  recovering : float;
  down : float;
  lost : float;
  unused : float;
}

type outcome = {
  work_saved : float;
  checkpoints : int;
  failures : int;
  replans : int;
  replans_platform : int;
  predictions_true : int;
  predictions_false : int;
  proactive_checkpoints : int;
  breakdown : breakdown;
  events : event list;
}

(* One plan buffer per domain, handed to every re-plan of every run on
   it. [busy] covers a nested run on the same domain (a hook that itself
   simulates, or a systhread switch mid-run): that run plans into a
   buffer of its own. *)
type slot = { buf : Plan.t; mutable busy : bool }

let slot_key =
  Domain.DLS.new_key (fun () -> { buf = Plan.create (); busy = false })

(* The engine keeps two clocks:
   - [wall]: elapsed reservation time;
   - [exposed]: elapsed failure-exposed time (wall minus downtimes).
   Failure dates live on the exposed clock, so a failure never strikes
   during a downtime, as the model requires. Platform events live on the
   wall clock: one that lands inside a downtime window takes effect at
   the re-plan that follows it. Predicted events live on the exposed
   clock like the failures they announce: a prediction cannot fire
   during a downtime.

   The three event sources are plain cursors: the next failure date and
   its index into the trace, and the unconsumed suffixes of the two
   sorted event lists (an event at or past the horizon ends its list —
   it can never matter).

   The run is one step loop. A step either re-plans (takes one due
   platform event, or queries the policy and resets the per-plan state)
   or advances the segment in flight to the first of: a platform event,
   a prediction, a failure, an overrun or its checkpoint. A segment's
   checkpoint duration is drawn once ([drawn]), so a prediction the
   policy ignores costs no time: the next step re-attempts the same
   segment from the same clocks. The loop has no local closures, so
   every float of its state stays unboxed; it allocates only when a
   failure strikes (the trace hands back the next inter-arrival time),
   when a policy is queried (its boxed [tleft]), and when recording
   events. *)
let replay buf ~record ~ckpt_sampler ~platform ~predictions ~proactive_c
    ~params ~horizon ~policy trace =
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
        if p.initial < 1 then invalid_arg "Engine.run: platform initial < 1";
        Fault.Trace.validate_platform_events p.events;
        p.initial
  in
  let pending = ref (match platform with None -> [] | Some p -> p.events) in
  let pq =
    ref
      (match predictions with
      | None -> []
      | Some evs ->
          Fault.Predictor.validate_events evs;
          evs)
  in
  let fail_index = ref 0 in
  let next_fail = ref (Fault.Trace.iat trace 0) in
  let wall = ref 0.0 and exposed = ref 0.0 in
  let saved = ref 0.0 and ckpts = ref 0 and fails = ref 0 and replans = ref 0 in
  let replans_platform = ref 0 in
  let preds_true = ref 0 and preds_false = ref 0 and proactive = ref 0 in
  let cur_policy = ref policy in
  let recovering = ref false in
  let b_ckpt = ref 0.0 and b_recov = ref 0.0 and b_down = ref 0.0 in
  let b_lost = ref 0.0 in
  let events = ref [] in
  let replan = ref true and finished = ref false in
  (* Per-plan state: the plan's start, the last commit, the recovery its
     first segment carries, the segment in flight with its drawn
     checkpoint duration, and [shift], the deviation of the drawn
     durations from the nominal C (stochastic-checkpoint mode; zero
     otherwise). *)
  let plan_start = ref 0.0 and committed = ref 0.0 in
  let first_overhead = ref 0.0 in
  let seg = ref 0 and prev_off = ref 0.0 and shift = ref 0.0 in
  let drawn = ref false and actual_c = ref 0.0 in
  while not !finished do
    if !replan then begin
      match !pending with
      | e :: rest
        when Fault.Trace.event_at e < horizon && Fault.Trace.event_at e <= !wall
        ->
          (* A platform event due by now (or one that landed during the
             last downtime) takes effect before the next plan is drawn:
             the params are degraded to the surviving node count and an
             adaptive policy re-compiles itself against them. *)
          pending := rest;
          let survivors = Fault.Trace.event_survivors e in
          incr replans_platform;
          if record then
            events :=
              Platform_change { at = Fault.Trace.event_at e; survivors }
              :: !events;
          (match !cur_policy.Policy.adapt with
          | Some f ->
              cur_policy := f (Fault.Params.degrade params ~initial ~survivors)
          | None -> ())
      | _ ->
          Policy.query !cur_policy buf ~params ~tleft:(horizon -. !wall)
            ~recovering:!recovering;
          incr replans;
          if buf.Plan.len = 0 then begin
            if record then events := Gave_up { at = !wall } :: !events;
            finished := true
          end
          else begin
            replan := false;
            plan_start := !wall;
            committed := !wall;
            first_overhead := if !recovering then r else 0.0;
            seg := 0;
            prev_off := 0.0;
            shift := 0.0;
            drawn := false
          end
    end
    else if !seg = buf.Plan.len then finished := true
    else begin
      let first = !seg = 0 in
      let off = buf.Plan.offsets.(!seg) in
      if not !drawn then begin
        actual_c := (match ckpt_sampler with None -> c | Some f -> f ());
        drawn := true
      end;
      let nominal_len = off -. !prev_off in
      let shift' = !shift +. (!actual_c -. c) in
      let seg_len = nominal_len +. (shift' -. !shift) in
      let completion_wall = !plan_start +. off +. shift' in
      let seg_end_e = !exposed +. seg_len in
      let fail_e = !next_fail in
      let fail_wall = !wall +. (fail_e -. !exposed) in
      let next_event_wall =
        match !pending with
        | e :: _ when Fault.Trace.event_at e < horizon -> Fault.Trace.event_at e
        | _ -> infinity
      in
      (* An overdue prediction (announced before the clocks got here,
         e.g. clamped to 0 or landed inside a downtime) fires
         immediately. *)
      let pred_e =
        match !pq with
        | ev :: _ when ev.Fault.Predictor.at < horizon ->
            Float.max ev.Fault.Predictor.at !exposed
        | _ -> infinity
      in
      let pred_wall = !wall +. (pred_e -. !exposed) in
      let strike = ref false in
      if
        next_event_wall < fail_wall
        && next_event_wall < completion_wall
        && next_event_wall <= pred_wall
      then begin
        (* A platform event interrupts the plan before this checkpoint
           completes (and before the next failure): advance both clocks
           to the event and re-plan, which consumes it. The in-flight
           span since the last commit is abandoned — it lands in the
           [unused] share. *)
        let delta = Float.max 0.0 (next_event_wall -. !wall) in
        wall := !wall +. delta;
        exposed := !exposed +. delta;
        replan := true
      end
      else if pred_e < fail_e && pred_wall < completion_wall then begin
        (* A prediction fires before this checkpoint completes and before
           the next failure. The policy's hook never sees
           [true_positive] — there is no oracle. *)
        let ev = List.hd !pq in
        pq := List.tl !pq;
        let true_positive = ev.Fault.Predictor.true_positive in
        if true_positive then incr preds_true else incr preds_false;
        if record then
          events := Prediction { at = pred_wall; true_positive } :: !events;
        let since_commit = pred_wall -. !committed in
        let overhead = if first then !first_overhead else 0.0 in
        (* The bankable work: what has elapsed since the last commit, net
           of the initial recovery, capped by the segment's work share (a
           prediction landing inside the in-flight nominal checkpoint
           cannot bank checkpoint time as work — the excess is abandoned
           into [unused]). *)
        let seg_work = Float.max 0.0 (seg_len -. !actual_c -. overhead) in
        let work =
          Float.min (Float.max 0.0 (since_commit -. overhead)) seg_work
        in
        let take =
          work > 0.0
          && pred_wall +. cp <= horizon
          &&
          match !cur_policy.Policy.on_prediction with
          | None -> false
          | Some f ->
              f ~tleft:(horizon -. pred_wall) ~since_commit
                ~window:ev.Fault.Predictor.window
        in
        (* Ignored (by the policy, or nothing to bank, or no room left):
           nothing else changes, and the next step re-attempts the
           segment. Taken: a proactive checkpoint of [cp] from the firing
           instant, exposed to failures; the rest of the plan is
           abandoned and the policy re-plans from the fresh commit. *)
        if take then begin
          let delta = pred_e -. !exposed in
          wall := !wall +. delta;
          exposed := pred_e;
          let ckpt_end_e = !exposed +. cp in
          if fail_e < ckpt_end_e then strike := true
          else begin
            wall := !wall +. cp;
            exposed := ckpt_end_e;
            saved := !saved +. work;
            b_ckpt := !b_ckpt +. cp;
            if first then begin
              (* [work > 0] implies the initial recovery fully elapsed
                 before the prediction fired; commit it with this
                 checkpoint. *)
              b_recov := !b_recov +. !first_overhead;
              recovering := false
            end;
            incr ckpts;
            incr proactive;
            if record then
              events :=
                Segment_saved { start = !committed; finish = !wall; work }
                :: !events;
            replan := true
          end
        end
      end
      else if fail_e < seg_end_e then strike := true
      else if completion_wall > horizon then begin
        (* Stochastic checkpoint overran the reservation: this checkpoint
           (and a fortiori the following ones) can no longer complete. *)
        if record then events := Gave_up { at = horizon } :: !events;
        finished := true
      end
      else begin
        let overhead = !actual_c +. if first then !first_overhead else 0.0 in
        let work = Float.max 0.0 (seg_len -. overhead) in
        saved := !saved +. work;
        b_ckpt := !b_ckpt +. !actual_c;
        if first then begin
          b_recov := !b_recov +. !first_overhead;
          (* The recovery (if any) is committed with the first
             checkpoint: a plan started by a later platform event
             continues from here without re-recovering. *)
          recovering := false
        end;
        incr ckpts;
        wall := !wall +. seg_len;
        committed := !wall;
        exposed := seg_end_e;
        if record then
          events :=
            Segment_saved { start = !wall -. seg_len; finish = !wall; work }
            :: !events;
        prev_off := off;
        shift := shift';
        incr seg;
        drawn := false
      end;
      if !strike then begin
        (* Everything since the last commit is lost. *)
        let delta = fail_e -. !exposed in
        wall := !wall +. delta;
        exposed := fail_e;
        incr fails;
        let lost = !wall -. !committed in
        b_lost := !b_lost +. lost;
        if record then events := Failure { at = !wall; lost } :: !events;
        (* A stochastic-checkpoint shift can push [wall] past the horizon
           before the failure strikes; the downtime share is then empty,
           not negative. *)
        b_down := !b_down +. Float.max 0.0 (Float.min d (horizon -. !wall));
        wall := !wall +. d;
        recovering := true;
        (* Draw the next failure only if the run goes on: a platform
           trace covers the horizon on the exposed clock alone, and a
           stochastic checkpoint can carry this strike past its last
           inter-arrival time. *)
        if horizon -. !wall < r +. c then finished := true
        else begin
          incr fail_index;
          next_fail := !next_fail +. Fault.Trace.iat trace !fail_index;
          replan := true
        end
      end
    end
  done;
  (* A downtime can overrun the horizon; clip it rather than report a
     negative unused share. *)
  let unused =
    horizon -. (!saved +. !b_ckpt +. !b_recov +. !b_down +. !b_lost)
  in
  {
    work_saved = !saved;
    checkpoints = !ckpts;
    failures = !fails;
    replans = !replans;
    replans_platform = !replans_platform;
    predictions_true = !preds_true;
    predictions_false = !preds_false;
    proactive_checkpoints = !proactive;
    breakdown =
      {
        working = !saved;
        checkpointing = !b_ckpt;
        recovering = !b_recov;
        down =
          (if unused < 0.0 then Float.max 0.0 (!b_down +. unused) else !b_down);
        lost = !b_lost;
        unused = (if unused < 0.0 then 0.0 else unused);
      };
    events = List.rev !events;
  }

let run ?(record = false) ?ckpt_sampler ?platform ?predictions ?proactive_c
    ~params ~horizon ~policy trace =
  (* A non-finite horizon would have the periodic plans grow forever. *)
  if not (Float.is_finite horizon) then
    invalid_arg "Engine.run: horizon must be finite";
  if horizon < 0.0 then invalid_arg "Engine.run: negative horizon";
  let slot = Domain.DLS.get slot_key in
  let buf = if slot.busy then Plan.create () else slot.buf in
  slot.busy <- true;
  match
    replay buf ~record ~ckpt_sampler ~platform ~predictions ~proactive_c
      ~params ~horizon ~policy trace
  with
  | outcome ->
      if buf == slot.buf then slot.busy <- false;
      outcome
  | exception e ->
      if buf == slot.buf then slot.busy <- false;
      raise e

let proportion_of_work ~params ~horizon outcome =
  let c = params.Fault.Params.c in
  if horizon <= c then
    invalid_arg "Engine.proportion_of_work: horizon must exceed C";
  outcome.work_saved /. (horizon -. c)
