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

let validate_plan ~params ~tleft ~recovering (p : Plan.t) =
  let c = params.Fault.Params.c and r = params.Fault.Params.r in
  let base = if recovering then r else 0.0 in
  let fail fmt = Format.kasprintf invalid_arg fmt in
  let prev = ref 0.0 in
  for i = 0 to p.len - 1 do
    let off = p.offsets.(i) in
    if off > tleft +. eps then
      fail "plan: checkpoint completion %g exceeds tleft %g" off tleft;
    if !prev = 0.0 && off < base +. c -. eps then
      fail "plan: first checkpoint %g before base %g + C %g" off base c;
    if !prev > 0.0 && off -. !prev < c -. eps then
      fail "plan: segment [%g, %g] shorter than C = %g" !prev off c;
    if off <= !prev then fail "plan: offsets not increasing at %g" off;
    prev := off
  done

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

let equal_plan ~params ~count p ~tleft ~recovering =
  let c = params.Fault.Params.c and r = params.Fault.Params.r in
  let base = if recovering then r else 0.0 in
  let span = tleft -. base in
  Plan.clear p;
  if span < c || count < 1 then ()
  else begin
    (* Each segment must be able to hold its checkpoint. *)
    let n = min count (int_of_float (floor (span /. c))) in
    let n = max n 1 in
    let seg = span /. float_of_int n in
    Plan.reserve p n;
    for i = 0 to n - 1 do
      p.offsets.(i) <- base +. (float_of_int (i + 1) *. seg)
    done;
    p.len <- n
  end

let equal_segments ~params ~count =
  if count < 1 then invalid_arg "Policy.equal_segments: count < 1";
  make ~name:(Printf.sprintf "Equal(%d)" count) (equal_plan ~params ~count)

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
  let plan p ~tleft ~recovering =
    Plan.clear p;
    let base = if recovering then r else 0.0 in
    if tleft -. base < c then ()
    else begin
      (* Checkpoints complete every [period + c]; when the remaining
         stretch cannot hold a further full period, the final checkpoint
         completes exactly at the end of the reservation. *)
      let stride = period +. c in
      let last = ref base and building = ref true in
      while !building do
        let rem = tleft -. !last in
        if rem <= stride +. c then begin
          (* Final (possibly short) segment, checkpoint at the end; if
             even a bare checkpoint does not fit, stop here. *)
          if rem < c then () else add p tleft;
          building := false
        end
        else begin
          last := !last +. stride;
          add p !last
        end
      done
    end
  in
  make ~name:(Printf.sprintf "Periodic(%g)" period) plan

let max_work ~params ~tleft ~recovering =
  let c = params.Fault.Params.c in
  let span = usable ~params ~tleft ~recovering in
  Float.max 0.0 (span -. c)
