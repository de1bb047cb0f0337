type t = {
  u : float;
  tstar : int;
  v0 : float array;
  v1 : float array;
  i0 : int array;  (* optimal next-checkpoint quantum; 0 = stop *)
  i1 : int array;
  k0 : Tables.I.t;  (* one row: length of the plan from (n, δ = 0) *)
}

let quanta_round x ~u = int_of_float (Float.round (x /. u))

let build ~params ~quantum ~horizon () =
  let tstar = Tables.quanta_count ~who:"Optimal.build" ~quantum ~horizon in
  let open Fault.Params in
  let u = quantum in
  let cq = max 1 (quanta_round params.c ~u) in
  let rq = max 0 (quanta_round params.r ~u) in
  let dq = max 0 (quanta_round params.d ~u) in
  let lam = params.lambda in
  let psucc = Array.init (tstar + 1) (fun i -> exp (-.lam *. float_of_int i *. u)) in
  let p = Array.make (tstar + 1) 0.0 in
  for f = 1 to tstar do
    p.(f) <- psucc.(f - 1) -. psucc.(f)
  done;
  let v0 = Array.make (tstar + 1) 0.0 in
  let v1 = Array.make (tstar + 1) 0.0 in
  let i0 = Array.make (tstar + 1) 0 in
  let i1 = Array.make (tstar + 1) 0 in
  let k0 = Tables.I.create ~rows:1 ~cols:(tstar + 1) ~max_value:tstar in
  let ilo0 = cq + 1 and ilo1 = rq + cq + 1 in
  (* Bottom-up over n; every reference is to a strictly smaller index
     (i >= cq + 1 >= 2 for the success branch, f >= 1 for failures).
     One scan over the completion quantum i of the next checkpoint
     serves both δ: they share the failure prefix sum
     S(i) = Σ_{f≤i} p_f V(n - f - D, 1), accumulated in the order two
     separate scans would use, so it has the same bits; δ = 1 takes
     candidates from [ilo1] on. The work terms i - cq and i - cq - rq
     are float counters stepped by 1 (exact on these small integers,
     so the same bits as the conversion). *)
  for n = 1 to tstar do
    let acc_hi = n - dq - 1 in  (* beyond this, n - f - dq < 1: no term *)
    let running = ref 0.0 in
    for f = 1 to min (ilo0 - 1) acc_hi do
      running :=
        !running +. (Array.unsafe_get p f *. Array.unsafe_get v1 (n - f - dq))
    done;
    let best0 = ref 0.0 and besti0 = ref 0 in
    let best1 = ref 0.0 and besti1 = ref 0 in
    let w0 = ref 1.0 and w1 = ref (float_of_int (1 - rq)) in
    for i = ilo0 to n do
      if i <= acc_hi then
        running :=
          !running
          +. (Array.unsafe_get p i *. Array.unsafe_get v1 (n - i - dq));
      let pi = Array.unsafe_get psucc i in
      let cont = Array.unsafe_get v0 (n - i) in
      let cand0 = (pi *. (!w0 +. cont)) +. !running in
      if cand0 > !best0 then begin
        best0 := cand0;
        besti0 := i
      end;
      let cand1 = (pi *. (!w1 +. cont)) +. !running in
      if cand1 > !best1 && i >= ilo1 then begin
        best1 := cand1;
        besti1 := i
      end;
      w0 := !w0 +. 1.0;
      w1 := !w1 +. 1.0
    done;
    v0.(n) <- !best0;
    i0.(n) <- !besti0;
    v1.(n) <- !best1;
    i1.(n) <- !besti1;
    if !besti0 > 0 then
      Tables.I.set k0 0 n (1 + Tables.I.get k0 0 (n - !besti0))
  done;
  { u; tstar; v0; v1; i0; i1; k0 }

let quantum t = t.u
let horizon_quanta t = t.tstar

let check_n t n = if n < 0 || n > t.tstar then invalid_arg "Optimal: n outside range"

let value_q t ~n ~delta =
  check_n t n;
  (if delta then t.v1 else t.v0).(n) *. t.u

let first_checkpoint_q t ~n ~delta =
  check_n t n;
  (if delta then t.i1 else t.i0).(n)

(* After the first checkpoint the plan continues from δ = 0. *)
let plan_length t ~n ~delta =
  check_n t n;
  if not delta then Tables.I.get t.k0 0 n
  else match t.i1.(n) with 0 -> 0 | i -> 1 + Tables.I.get t.k0 0 (n - i)

let clamp_n t tleft =
  let n = int_of_float (floor ((tleft /. t.u) +. 1e-9)) in
  if n < 0 then 0 else Int.min n t.tstar

let value t ~tleft = value_q t ~n:(clamp_n t tleft) ~delta:false

(* Unrolls the argmax tables from state (n, δ) into [p]: the completion
   quantum of each checkpoint times [scale], stored once. Every segment
   spans at least one quantum, so at most [n] of them. Inlined into both
   callers, so [scale] stays unboxed. *)
let[@inline] unroll t (p : Sim.Plan.t) ~n ~delta ~scale =
  p.len <- 0;
  Sim.Plan.reserve p n;
  let offs = p.offsets in
  let n = ref n and i = ref (if delta then t.i1 else t.i0).(n) in
  let base = ref 0 and len = ref 0 in
  while !i > 0 do
    base := !base + !i;
    offs.(!len) <- float_of_int !base *. scale;
    incr len;
    n := !n - !i;
    (* After the first checkpoint the plan continues from δ = 0. *)
    i := t.i0.(!n)
  done;
  p.len <- !len

let plan_q t ~n ~delta =
  check_n t n;
  let p = Sim.Plan.create () in
  unroll t p ~n ~delta ~scale:1.0;
  List.map int_of_float (Sim.Plan.to_list p)

let policy t =
  let plan (p : Sim.Plan.t) ~tleft ~recovering =
    let n = clamp_n t tleft in
    if n = 0 then p.len <- 0 else unroll t p ~n ~delta:recovering ~scale:t.u
  in
  Sim.Policy.make ~name:"OptimalUnrestricted" plan

let bytes t =
  (* Four flat arrays of tstar + 1 native words each, and the plan
     lengths at 2 or 4 bytes per state. *)
  (8 * 4 * Array.length t.v0) + Tables.I.bytes t.k0
