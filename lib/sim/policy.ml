type t = {
  name : string;
  plan : Plan.t -> tleft:float -> recovering:bool -> unit;
  adapt : (Fault.Params.t -> t) option;
  on_prediction :
    (tleft:float -> since_commit:float -> window:float -> bool) option;
}

let make ~name plan = { name; plan; adapt = None; on_prediction = None }

let set_adapt p adapt = { p with adapt = Some adapt }

let set_on_prediction p f = { p with on_prediction = Some f }

(* Numerical slack for plan validation: offsets are produced by floating
   arithmetic, so exact comparisons would reject valid plans. *)
let eps = 1e-9

(* The contract's checks on offset [i] ([prev] is the offset before it,
   0 for the first), in the order whose first failure names the error:
   raises with that message, or returns if the offset passes them all.
   [validate_plan] calls it only for an offset its fast comparisons do
   not clear, so a valid plan never boxes these arguments. NaN fails
   every comparison, so it has a check of its own; ±∞ fail the bounds. *)
let check_offset ~params ~tleft ~recovering ~prev i off =
  let c = params.Fault.Params.c and r = params.Fault.Params.r in
  let base = if recovering then r else 0.0 in
  let fail fmt = Format.kasprintf invalid_arg fmt in
  if Float.is_nan off then fail "plan: offset %d is NaN" i;
  if off > tleft +. eps then
    fail "plan: checkpoint completion %g exceeds tleft %g" off tleft;
  if prev = 0.0 && off < base +. c -. eps then
    fail "plan: first checkpoint %g before base %g + C %g" off base c;
  if prev > 0.0 && off -. prev < c -. eps then
    fail "plan: segment [%g, %g] shorter than C = %g" prev off c;
  if off <= prev then fail "plan: offsets not increasing at %g" off

(* One pass with the bounds hoisted and the first offset peeled. Each
   fast test is the negation of a contract check, written so that NaN
   (which fails every comparison) fails it too; an offset that does not
   clear them all goes to [check_offset]. A first offset that passes is
   positive, so from the second on [prev > 0]: the peeled first offset
   gets the [base + C] check and every later one the segment check,
   exactly as [check_offset] chooses them. *)
let validate_plan ~params ~tleft ~recovering (p : Plan.t) =
  let len = p.len in
  if len > 0 then begin
    let offs = p.offsets in
    let c = params.Fault.Params.c in
    let base = if recovering then params.Fault.Params.r else 0.0 in
    let hi = tleft +. eps and lo = base +. c -. eps and gap = c -. eps in
    let first = offs.(0) in
    if not (first <= hi && first >= lo && first > 0.0) then
      check_offset ~params ~tleft ~recovering ~prev:0.0 0 first;
    let prev = ref first in
    for i = 1 to len - 1 do
      let off = offs.(i) in
      if not (off <= hi && off -. !prev >= gap && off > !prev) then
        check_offset ~params ~tleft ~recovering ~prev:!prev i off;
      prev := off
    done
  end

let query policy p ~params ~tleft ~recovering =
  policy.plan p ~tleft ~recovering;
  validate_plan ~params ~tleft ~recovering p

(* Appends [x] to [p], growing it as needed. Written here rather than
   in Plan: a cross-module call would box [x]. *)
let[@inline] add (p : Plan.t) x =
  if p.len = Array.length p.offsets then Plan.reserve p (p.len + 1);
  p.offsets.(p.len) <- x;
  p.len <- p.len + 1

let no_checkpoint =
  make ~name:"NoCheckpoint" (fun p ~tleft:_ ~recovering:_ -> Plan.clear p)

let usable ~params ~tleft ~recovering =
  if recovering then tleft -. params.Fault.Params.r else tleft

let single_final ~params =
  let c = params.Fault.Params.c in
  let plan p ~tleft ~recovering =
    Plan.clear p;
    if usable ~params ~tleft ~recovering < c then () else add p tleft
  in
  make ~name:"SingleFinal" plan

let single_at ~params ~offset_from_end =
  if offset_from_end < 0.0 then
    invalid_arg "Policy.single_at: offset_from_end must be nonnegative";
  let c = params.Fault.Params.c and r = params.Fault.Params.r in
  let plan p ~tleft ~recovering =
    Plan.clear p;
    let base = if recovering then r else 0.0 in
    if tleft -. base < c then ()
    else begin
      (* Clamp so the checkpoint still fits after [base + c]. *)
      let off = Float.max (base +. c) (tleft -. offset_from_end) in
      add p (Float.min off tleft)
    end
  in
  make ~name:(Printf.sprintf "SingleAt(-%g)" offset_from_end) plan

(* The equal-segments plan of [count] segments over the [span] after
   [base], capped at the number of checkpoints that fit: reserves once,
   stores each offset once. Inlined into each writer below, so [base]
   and [span] stay unboxed. *)
let[@inline] write_equal (p : Plan.t) ~c ~base ~span ~count =
  (* Each segment must be able to hold its checkpoint. *)
  let n = Int.min count (int_of_float (floor (span /. c))) in
  let n = Int.max n 1 in
  let seg = span /. float_of_int n in
  p.len <- 0;
  Plan.reserve p n;
  let offs = p.offsets in
  for i = 0 to n - 1 do
    offs.(i) <- base +. (float_of_int (i + 1) *. seg)
  done;
  p.len <- n

let equal_segments ~params ~count =
  if count < 1 then invalid_arg "Policy.equal_segments: count < 1";
  let c = params.Fault.Params.c and r = params.Fault.Params.r in
  let plan (p : Plan.t) ~tleft ~recovering =
    let base = if recovering then r else 0.0 in
    let span = tleft -. base in
    if span < c then p.len <- 0 else write_equal p ~c ~base ~span ~count
  in
  make ~name:(Printf.sprintf "Equal(%d)" count) plan

let threshold_segments ~name ~params (thresholds : float array) =
  let c = params.Fault.Params.c and r = params.Fault.Params.r in
  let plan (p : Plan.t) ~tleft ~recovering =
    let base = if recovering then r else 0.0 in
    let span = tleft -. base in
    if span < c then p.len <- 0
    else begin
      (* The count: the largest [n] with [thresholds.(n - 1) <= span],
         by the binary search of [Core.Threshold.segments_for], written
         here so that [span] is not boxed for a call. *)
      let lo = ref 0 and hi = ref (Array.length thresholds - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi + 1) / 2 in
        if thresholds.(mid) <= span then lo := mid else hi := mid - 1
      done;
      write_equal p ~c ~base ~span ~count:(!lo + 1)
    end
  in
  make ~name plan

let two_checkpoints ~params ~alpha =
  if alpha <= 0.0 || alpha >= 1.0 then
    invalid_arg "Policy.two_checkpoints: alpha must lie in (0, 1)";
  let c = params.Fault.Params.c and r = params.Fault.Params.r in
  let plan p ~tleft ~recovering =
    Plan.clear p;
    let base = if recovering then r else 0.0 in
    let span = tleft -. base in
    if span < 2.0 *. c then begin
      (* No room for two checkpoints: degrade to a single final one. *)
      if span < c then () else add p tleft
    end
    else begin
      let first = base +. (alpha *. span) in
      add p (Float.max (base +. c) (Float.min first (tleft -. c)));
      add p tleft
    end
  in
  make ~name:(Printf.sprintf "Two(%.3f)" alpha) plan

let periodic ~params ~period =
  if period <= 0.0 then invalid_arg "Policy.periodic: period must be positive";
  let c = params.Fault.Params.c and r = params.Fault.Params.r in
  let plan (p : Plan.t) ~tleft ~recovering =
    let base = if recovering then r else 0.0 in
    if tleft -. base < c then p.len <- 0
    else begin
      (* Checkpoints complete every [period + c]; when the remaining
         stretch cannot hold a further full period, the final checkpoint
         completes exactly at the end of the reservation, if even a bare
         checkpoint fits. Each step advances [last] by [stride] (up to
         rounding), so the plan holds at most [span / stride + 2]
         offsets; the reservation adds one for the rounding of that
         quotient, and the stores stay bounds-checked. *)
      let stride = period +. c in
      let tail = stride +. c in
      p.len <- 0;
      Plan.reserve p (int_of_float ((tleft -. base) /. stride) + 3);
      let offs = p.offsets in
      let last = ref base and n = ref 0 in
      while tleft -. !last > tail do
        last := !last +. stride;
        offs.(!n) <- !last;
        incr n
      done;
      if tleft -. !last >= c then begin
        offs.(!n) <- tleft;
        incr n
      end;
      p.len <- !n
    end
  in
  make ~name:(Printf.sprintf "Periodic(%g)" period) plan

let max_work ~params ~tleft ~recovering =
  let c = params.Fault.Params.c in
  let span = usable ~params ~tleft ~recovering in
  Float.max 0.0 (span -. c)
