type t = {
  params : Fault.Params.t;
  u : float;
  tstar : int;
  kmax : int;
  cq : int;
  rq : int;
  dq : int;
  e0 : Tables.F.t;  (* e0.(k, n) = E(n, k, 0), in quanta *)
  e1 : Tables.F.t;
  ib0 : Tables.I.t;  (* optimal first-checkpoint quantum; 0 = none *)
  ib1 : Tables.I.t;
  argm1 : Tables.I.t;  (* argm1.(k, n) = argmax_{m<=k} e1.(m, n) *)
  bestk0 : int array;  (* argmax_k e0.(k, n) *)
}

let quanta_round x ~u = int_of_float (Float.round (x /. u))

let suggested_kmax ~params ~horizon =
  let open Fault.Params in
  let u_yd = Model.young_daly_period params in
  (* With C = 0 both the exact bound T/C and the Young/Daly stride
     4T/(W_YD + C) divide by zero (W_YD = sqrt(2µC) vanishes with C);
     degrade to one checkpoint per time unit — free checkpoints make any
     denser cap pointless on the unit-quantum grid the DP uses. *)
  let denom = u_yd +. params.c in
  let guess =
    if denom > 0.0 then int_of_float (ceil (4.0 *. horizon /. denom)) + 8
    else max 1 (int_of_float (ceil horizon))
  in
  if params.c > 0.0 then
    let exact = max 1 (int_of_float (floor (horizon /. params.c))) in
    min exact (max 1 guess)
  else max 1 guess

(* The exact bound on k: floor(Tq/Cq), at least 1. *)
let exact_kmax ~tstar ~cq = max 1 (tstar / cq)

let effective_kmax ~params ~quantum ~horizon =
  let tstar = Tables.quanta_count ~who:"Dp.build" ~quantum ~horizon in
  let cq = max 1 (quanta_round params.Fault.Params.c ~u:quantum) in
  min (suggested_kmax ~params ~horizon) (exact_kmax ~tstar ~cq)

let build ?kmax ~params ~quantum ~horizon () =
  let tstar = Tables.quanta_count ~who:"Dp.build" ~quantum ~horizon in
  let open Fault.Params in
  let u = quantum in
  let cq = max 1 (quanta_round params.c ~u) in
  let rq = max 0 (quanta_round params.r ~u) in
  let dq = max 0 (quanta_round params.d ~u) in
  let kmax_exact = exact_kmax ~tstar ~cq in
  let kmax =
    match kmax with
    | None -> kmax_exact
    | Some k ->
        if k < 1 then invalid_arg "Dp.build: kmax < 1";
        min k kmax_exact
  in
  let lam = params.lambda in
  let cols = tstar + 1 in
  let psucc = Array.init cols (fun i -> exp (-.lam *. float_of_int i *. u)) in
  let p = Array.make cols 0.0 in
  for f = 1 to tstar do
    p.(f) <- psucc.(f - 1) -. psucc.(f)
  done;
  let e0 = Tables.F.create ~rows:(kmax + 1) ~cols in
  let e1 = Tables.F.create ~rows:(kmax + 1) ~cols in
  let ib0 = Tables.I.create ~rows:(kmax + 1) ~cols ~max_value:tstar in
  let ib1 = Tables.I.create ~rows:(kmax + 1) ~cols ~max_value:tstar in
  let argm1 = Tables.I.create ~rows:(kmax + 1) ~cols ~max_value:kmax in
  let e0d = Tables.F.data e0 and e1d = Tables.F.data e1 in
  let ilo0 = cq + 1 in
  let ilo1 = rq + cq + 1 in
  (* bestv.(n) = max_{m<=k} E(n, m, 1) for the sweep's current k;
     updated in place as soon as E(n, k, 1) is known, which is safe
     because states only reference strictly smaller n. *)
  let bestv = Array.make cols 0.0 in
  let argv = Array.make cols 0 in
  (* The hot loop runs entirely on flat [float array] scratch rows —
     the k-1 row read back as the continuation, the k row written — and
     each finished row is copied into the Bigarray tables afterwards.
     This keeps the inner loop free of the Bigarray descriptor
     indirection while the persistent tables stay single-allocation.
     [prev0] is all zeros while k = 1, which makes the k = 1
     continuation (no later checkpoint) the same array read as the
     k >= 2 one instead of a per-iteration branch. *)
  let prev0 = ref (Array.make cols 0.0) in
  let cur0 = ref (Array.make cols 0.0) in
  let cur1 = Array.make cols 0.0 in
  let icur0 = Array.make cols 0 in
  let icur1 = Array.make cols 0 in
  for k = 1 to kmax do
    let row = Tables.F.row e0 k in
    let cont = !prev0 in
    let out0 = !cur0 in
    let head = (k - 1) * cq in  (* quanta reserved for the k - 1 later checkpoints *)
    Array.fill out0 0 cols 0.0;
    Array.fill cur1 0 cols 0.0;
    Array.fill icur0 0 cols 0;
    Array.fill icur1 0 cols 0;
    (* States with n <= k cq cannot fit the k checkpoints even from a
       fresh start: both values stay at the tables' zero fill, exactly
       as the per-state solve used to compute. The loop starts where a
       candidate first exists. *)
    for n = (k * cq) + 1 to tstar do
      (* One state (n, k): maximise over the completion quantum i of the
         first checkpoint for delta = 0 and delta = 1 together, sharing
         the failure-term prefix sum
         S(i) = sum_{f=1..i} p_f bestv(n - f - dq),
         which the two solves used to recompute independently (the
         accumulation sequence — and therefore every rounding — is the
         same, so the shared sum is bit-identical to the two private
         ones). The f < ilo0 ramp runs once instead of twice, and the
         candidate scan runs once instead of twice, split at [ilo1] so
         the delta = 1 candidate needs no range test per iteration. *)
      let ihi = if k >= 2 then n - head else n in
      let acc_hi = n - dq - 1 in  (* beyond this, n - i - dq < 1: no term *)
      let running = ref 0.0 in
      let fhi = min (ilo0 - 1) acc_hi in
      for f = 1 to fhi do
        running :=
          !running
          +. (Array.unsafe_get p f *. Array.unsafe_get bestv (n - f - dq))
      done;
      let best0 = ref 0.0 and besti0 = ref 0 in
      let best1 = ref 0.0 and besti1 = ref 0 in
      (* Each scan is further split at [acc_hi]: the prefix accumulates
         the failure term, the (at most dq + 1 iteration) suffix does
         not, so the accumulation guard never runs inside the hot loop. *)
      (* The work terms i - cq and i - cq - rq advance by exactly 1 per
         iteration; tracking them as float counters (exact on these
         small integers, so bit-identical to the conversion) keeps the
         int-to-float unit out of the hot loops. *)
      let a_hi = min ihi (ilo1 - 1) in
      let w0 = ref (float_of_int (ilo0 - cq)) in
      for i = ilo0 to min a_hi acc_hi do
        running :=
          !running
          +. (Array.unsafe_get p i *. Array.unsafe_get bestv (n - i - dq));
        let pi = Array.unsafe_get psucc i in
        let cand0 =
          (pi *. (!w0 +. Array.unsafe_get cont (n - i))) +. !running
        in
        if cand0 > !best0 then begin
          best0 := cand0;
          besti0 := i
        end;
        w0 := !w0 +. 1.0
      done;
      for i = max ilo0 (acc_hi + 1) to a_hi do
        let pi = Array.unsafe_get psucc i in
        let cand0 =
          (pi *. (float_of_int (i - cq) +. Array.unsafe_get cont (n - i)))
          +. !running
        in
        if cand0 > !best0 then begin
          best0 := cand0;
          besti0 := i
        end
      done;
      let b_lo = max ilo0 ilo1 in
      let b_hi = min ihi acc_hi in
      let w0 = ref (float_of_int (b_lo - cq)) in
      let w1 = ref (float_of_int (b_lo - cq - rq)) in
      (* Main scan, unrolled by two (identical operation sequence, less
         loop overhead); the odd leftover falls through to [i = b_hi]. *)
      let i = ref b_lo in
      while !i < b_hi do
        let i0 = !i in
        running :=
          !running
          +. (Array.unsafe_get p i0 *. Array.unsafe_get bestv (n - i0 - dq));
        let pi = Array.unsafe_get psucc i0 in
        let continuation = Array.unsafe_get cont (n - i0) in
        let cand0 = (pi *. (!w0 +. continuation)) +. !running in
        if cand0 > !best0 then begin
          best0 := cand0;
          besti0 := i0
        end;
        let cand1 = (pi *. (!w1 +. continuation)) +. !running in
        if cand1 > !best1 then begin
          best1 := cand1;
          besti1 := i0
        end;
        let i1 = i0 + 1 in
        running :=
          !running
          +. (Array.unsafe_get p i1 *. Array.unsafe_get bestv (n - i1 - dq));
        let pi = Array.unsafe_get psucc i1 in
        let continuation = Array.unsafe_get cont (n - i1) in
        let cand0 = (pi *. ((!w0 +. 1.0) +. continuation)) +. !running in
        if cand0 > !best0 then begin
          best0 := cand0;
          besti0 := i1
        end;
        let cand1 = (pi *. ((!w1 +. 1.0) +. continuation)) +. !running in
        if cand1 > !best1 then begin
          best1 := cand1;
          besti1 := i1
        end;
        w0 := !w0 +. 2.0;
        w1 := !w1 +. 2.0;
        i := i0 + 2
      done;
      if !i = b_hi then begin
        let i0 = !i in
        running :=
          !running
          +. (Array.unsafe_get p i0 *. Array.unsafe_get bestv (n - i0 - dq));
        let pi = Array.unsafe_get psucc i0 in
        let continuation = Array.unsafe_get cont (n - i0) in
        let cand0 = (pi *. (!w0 +. continuation)) +. !running in
        if cand0 > !best0 then begin
          best0 := cand0;
          besti0 := i0
        end;
        let cand1 = (pi *. (!w1 +. continuation)) +. !running in
        if cand1 > !best1 then begin
          best1 := cand1;
          besti1 := i0
        end
      end;
      for i = max b_lo (acc_hi + 1) to ihi do
        let pi = Array.unsafe_get psucc i in
        let continuation = Array.unsafe_get cont (n - i) in
        let cand0 = (pi *. (float_of_int (i - cq) +. continuation)) +. !running in
        if cand0 > !best0 then begin
          best0 := cand0;
          besti0 := i
        end;
        let cand1 =
          (pi *. (float_of_int (i - cq - rq) +. continuation)) +. !running
        in
        if cand1 > !best1 then begin
          best1 := cand1;
          besti1 := i
        end
      done;
      Array.unsafe_set out0 n !best0;
      Array.unsafe_set cur1 n !best1;
      Array.unsafe_set icur0 n !besti0;
      Array.unsafe_set icur1 n !besti1;
      if !best1 > Array.unsafe_get bestv n then begin
        bestv.(n) <- !best1;
        argv.(n) <- k
      end
    done;
    for n = 0 to tstar do
      Bigarray.Array1.unsafe_set e0d (row + n) (Array.unsafe_get out0 n);
      Bigarray.Array1.unsafe_set e1d (row + n) (Array.unsafe_get cur1 n)
    done;
    Tables.I.set_row ib0 k icur0;
    Tables.I.set_row ib1 k icur1;
    Tables.I.set_row argm1 k argv;
    let swap = !prev0 in
    prev0 := out0;
    cur0 := swap
  done;
  let bestk0 = Array.make cols 0 in
  let beste0 = Array.make cols 0.0 in
  for k = 1 to kmax do
    let row = Tables.F.row e0 k in
    for n = 1 to tstar do
      let v = Bigarray.Array1.unsafe_get e0d (row + n) in
      if v > beste0.(n) then begin
        beste0.(n) <- v;
        bestk0.(n) <- k
      end
    done
  done;
  { params; u; tstar; kmax; cq; rq; dq; e0; e1; ib0; ib1; argm1; bestk0 }

let quantum t = t.u
let horizon_quanta t = t.tstar
let kmax t = t.kmax

let bytes t =
  Tables.F.bytes t.e0 + Tables.F.bytes t.e1 + Tables.I.bytes t.ib0
  + Tables.I.bytes t.ib1 + Tables.I.bytes t.argm1
  + (8 * Array.length t.bestk0)

let check_state t ~n ~k =
  if n < 0 || n > t.tstar then invalid_arg "Dp: n outside [0, T*]";
  if k < 1 || k > t.kmax then invalid_arg "Dp: k outside [1, kmax]"

let expected_work_q t ~n ~k ~delta =
  check_state t ~n ~k;
  Tables.F.get (if delta then t.e1 else t.e0) k n *. t.u

let first_checkpoint_q t ~n ~k ~delta =
  check_state t ~n ~k;
  Tables.I.get (if delta then t.ib1 else t.ib0) k n

let arg_best_m t ~n ~k =
  check_state t ~n ~k;
  Tables.I.get t.argm1 k n

let best_expected_work_q t ~n ~delta =
  if n < 0 || n > t.tstar then invalid_arg "Dp: n outside [0, T*]";
  let table = if delta then t.e1 else t.e0 in
  let best = ref 0.0 in
  for k = 1 to t.kmax do
    let v = Tables.F.get table k n in
    if v > !best then best := v
  done;
  !best *. t.u

let clamp_n t tleft =
  let n = int_of_float (floor ((tleft /. t.u) +. 1e-9)) in
  if n < 0 then 0 else min n t.tstar

let expected_work t ~tleft =
  let n = clamp_n t tleft in
  let k = t.bestk0.(n) in
  if k = 0 then 0.0 else Tables.F.get t.e0 k n *. t.u

let best_k t ~n ~delta =
  if n < 0 || n > t.tstar then invalid_arg "Dp: n outside [0, T*]";
  if delta then Tables.I.get t.argm1 t.kmax n else t.bestk0.(n)

(* Unrolls the argmax tables from state (n, k, δ) into [p]: the
   completion quantum of each checkpoint, as a float (exact), at most
   [k] of them. *)
let unroll_q t (p : Sim.Plan.t) ~n ~k ~delta =
  Sim.Plan.reserve p k;
  let n = ref n and k = ref k and delta = ref delta in
  let base = ref 0 and len = ref 0 in
  while !k > 0 do
    let ib = Tables.I.get (if !delta then t.ib1 else t.ib0) !k !n in
    if ib = 0 then k := 0
    else begin
      base := !base + ib;
      p.offsets.(!len) <- float_of_int !base;
      incr len;
      n := !n - ib;
      decr k;
      delta := false
    end
  done;
  p.len <- !len

let plan_q t ~n ~k ~delta =
  check_state t ~n ~k;
  let p = Sim.Plan.create () in
  unroll_q t p ~n ~k ~delta;
  List.map int_of_float (Sim.Plan.to_list p)

let policy t =
  (* Per-reservation state to recover k_remaining after a failure: the
     recursion of Equation (8) re-plans with at most as many checkpoints
     as were still outstanding when the failure struck. [last] holds the
     previous plan in quanta, [last_tleft.(0)] the time left it was drawn
     at (a float array, so updating it allocates nothing). *)
  let last = Sim.Plan.create () in
  let last_tleft = [| 0.0 |] and last_k = ref 0 and has_last = ref false in
  let plan (p : Sim.Plan.t) ~tleft ~recovering =
    Sim.Plan.clear p;
    let n = clamp_n t tleft in
    let k =
      if n = 0 then 0
      else if not recovering then t.bestk0.(n)
      else begin
        let k_cap =
          if not !has_last then t.kmax
          else begin
            let elapsed = last_tleft.(0) -. tleft -. t.params.Fault.Params.d in
            let completed = ref 0 in
            for i = 0 to last.len - 1 do
              if last.offsets.(i) *. t.u <= elapsed +. 1e-9 then incr completed
            done;
            max 1 (!last_k - !completed)
          end
        in
        Tables.I.get t.argm1 (min k_cap t.kmax) n
      end
    in
    if k > 0 then begin
      check_state t ~n ~k;
      unroll_q t last ~n ~k ~delta:recovering;
      has_last := true;
      last_tleft.(0) <- tleft;
      last_k := k;
      Sim.Plan.reserve p last.len;
      for i = 0 to last.len - 1 do
        p.offsets.(i) <- last.offsets.(i) *. t.u
      done;
      p.len <- last.len
    end
  in
  Sim.Policy.make ~name:"DynamicProgramming" plan
