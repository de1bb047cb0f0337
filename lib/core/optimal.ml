type t = {
  u : float;
  tstar : int;
  cq : int;
  rq : int;
  dq : int;
  v0 : float array;
  v1 : float array;
  i0 : int array;  (* optimal next-checkpoint quantum; 0 = stop *)
  i1 : int array;
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
  (* Bottom-up over n; every reference is to a strictly smaller index
     (i >= cq + 1 >= 1 for the success branch, f >= 1 for failures). *)
  for n = 1 to tstar do
    let solve ~base =
      let ilo = base + cq + 1 in
      if ilo > n then (0.0, 0)
      else begin
        let running = ref 0.0 in
        for f = 1 to ilo - 1 do
          let n' = n - f - dq in
          if n' >= 1 then running := !running +. (p.(f) *. v1.(n'))
        done;
        let best = ref 0.0 and besti = ref 0 in
        for i = ilo to n do
          let n' = n - i - dq in
          if n' >= 1 then running := !running +. (p.(i) *. v1.(n'));
          let work = float_of_int (i - cq - base) in
          let cand = (psucc.(i) *. (work +. v0.(n - i))) +. !running in
          if cand > !best then begin
            best := cand;
            besti := i
          end
        done;
        (!best, !besti)
      end
    in
    let x1, j1 = solve ~base:rq in
    v1.(n) <- x1;
    i1.(n) <- j1;
    let x0, j0 = solve ~base:0 in
    v0.(n) <- x0;
    i0.(n) <- j0
  done;
  { u; tstar; cq; rq; dq; v0; v1; i0; i1 }

let quantum t = t.u
let horizon_quanta t = t.tstar

let check_n t n = if n < 0 || n > t.tstar then invalid_arg "Optimal: n outside range"

let value_q t ~n ~delta =
  check_n t n;
  (if delta then t.v1 else t.v0).(n) *. t.u

let clamp_n t tleft =
  let n = int_of_float (floor ((tleft /. t.u) +. 1e-9)) in
  if n < 0 then 0 else min n t.tstar

let value t ~tleft = value_q t ~n:(clamp_n t tleft) ~delta:false

(* Unrolls the argmax tables from state (n, δ) into [p]: the completion
   quantum of each checkpoint, as a float (exact). Every segment spans
   at least one quantum, so at most [n] of them. *)
let unroll_q t (p : Sim.Plan.t) ~n ~delta =
  Sim.Plan.clear p;
  Sim.Plan.reserve p n;
  let n = ref n and delta = ref delta and base = ref 0 in
  let go = ref true in
  while !go do
    let i = (if !delta then t.i1 else t.i0).(!n) in
    if i = 0 then go := false
    else begin
      base := !base + i;
      p.offsets.(p.len) <- float_of_int !base;
      p.len <- p.len + 1;
      n := !n - i;
      delta := false
    end
  done

let plan_q t ~n ~delta =
  check_n t n;
  let p = Sim.Plan.create () in
  unroll_q t p ~n ~delta;
  List.map int_of_float (Sim.Plan.to_list p)

let policy t =
  let plan (p : Sim.Plan.t) ~tleft ~recovering =
    let n = clamp_n t tleft in
    if n = 0 then Sim.Plan.clear p
    else begin
      unroll_q t p ~n ~delta:recovering;
      for i = 0 to p.len - 1 do
        p.offsets.(i) <- p.offsets.(i) *. t.u
      done
    end
  in
  Sim.Policy.make ~name:"OptimalUnrestricted" plan

let bytes t =
  (* Four flat arrays of tstar + 1 native words each. *)
  8 * 4 * Array.length t.v0
