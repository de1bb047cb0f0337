type t = {
  u : float;
  tstar : int;
  cq : int;
  rq : int;
  dq : int;
  v : Tables.Tri.t;  (* v.(n, a), a <= tstar - n; fresh execution *)
  iv : Tables.Itri.t;  (* argmax completion quantum; 0 = stop *)
  vr : float array;  (* post-failure: age 0, recovery pending *)
  ir : int array;
}

let quanta_round x ~u = int_of_float (Float.round (x /. u))

let build ~params ~dist ~quantum ~horizon () =
  let tstar = Tables.quanta_count ~who:"Dp_renewal.build" ~quantum ~horizon in
  let open Fault.Params in
  let u = quantum in
  let cq = max 1 (quanta_round params.c ~u) in
  let rq = max 0 (quanta_round params.r ~u) in
  let dq = max 0 (quanta_round params.d ~u) in
  (* Survival of the IAT distribution on the quantum grid. *)
  let sq =
    Array.init (tstar + 1) (fun x ->
        Fault.Trace.dist_survival dist (float_of_int x *. u))
  in
  let v = Tables.Tri.create ~side:tstar in
  let iv = Tables.Itri.create ~side:tstar ~max_value:tstar in
  let vd = Tables.Tri.data v in
  (* Row offsets of the triangular value table, hoisted so the inner
     candidate scan reads [vd] with one add instead of re-deriving the
     row start from the quadratic offset formula. *)
  let row_off = Array.init (tstar + 1) (fun m -> Tables.Tri.row v m) in
  let vr = Array.make (tstar + 1) 0.0 in
  let ir = Array.make (tstar + 1) 0 in
  for n = 1 to tstar do
    (* Fresh execution at every reachable age. *)
    let off_n = Array.unsafe_get row_off n in
    for a = 0 to tstar - n do
      let s_a = Array.unsafe_get sq a in
      if s_a > 1e-300 then begin
        let running = ref 0.0 in
        for f = 1 to cq do
          let n' = n - f - dq in
          if n' >= 1 then
            running :=
              !running
              +. (Array.unsafe_get sq (a + f - 1) -. Array.unsafe_get sq (a + f))
                 /. s_a
                 *. Array.unsafe_get vr n'
        done;
        let best = ref 0.0 and besti = ref 0 in
        for i = cq + 1 to n do
          let n' = n - i - dq in
          if n' >= 1 then
            running :=
              !running
              +. (Array.unsafe_get sq (a + i - 1) -. Array.unsafe_get sq (a + i))
                 /. s_a
                 *. Array.unsafe_get vr n';
          let cont =
            Bigarray.Array1.unsafe_get vd
              (Array.unsafe_get row_off (n - i) + a + i)
          in
          let cand =
            (Array.unsafe_get sq (a + i) /. s_a *. (float_of_int (i - cq) +. cont))
            +. !running
          in
          if cand > !best then begin
            best := cand;
            besti := i
          end
        done;
        Bigarray.Array1.unsafe_set vd (off_n + a) !best;
        if !besti <> 0 then Tables.Itri.set iv n a !besti
      end
    done;
    (* Post-failure state: age 0, recovery charged to the first segment. *)
    let ilo = rq + cq + 1 in
    if ilo <= n then begin
      let running = ref 0.0 in
      for f = 1 to ilo - 1 do
        let n' = n - f - dq in
        if n' >= 1 then
          running := !running +. ((sq.(f - 1) -. sq.(f)) *. vr.(n'))
      done;
      let best = ref 0.0 and besti = ref 0 in
      for i = ilo to n do
        let n' = n - i - dq in
        if n' >= 1 then
          running := !running +. ((sq.(i - 1) -. sq.(i)) *. vr.(n'));
        let cont =
          Bigarray.Array1.unsafe_get vd (Array.unsafe_get row_off (n - i) + i)
        in
        let cand =
          (sq.(i) *. (float_of_int (i - cq - rq) +. cont)) +. !running
        in
        if cand > !best then begin
          best := cand;
          besti := i
        end
      done;
      vr.(n) <- !best;
      ir.(n) <- !besti
    end
  done;
  { u; tstar; cq; rq; dq; v; iv; vr; ir }

let quantum t = t.u
let horizon_quanta t = t.tstar

let check t ~n ~age =
  if n < 0 || n > t.tstar then invalid_arg "Dp_renewal: n outside range";
  if age < 0 || age + n > t.tstar then
    invalid_arg "Dp_renewal: age outside the reachable triangle"

let value_q t ~n ~age =
  check t ~n ~age;
  Tables.Tri.get t.v n age *. t.u

let clamp_n t tleft =
  let n = int_of_float (floor ((tleft /. t.u) +. 1e-9)) in
  if n < 0 then 0 else min n t.tstar

let value t ~tleft = value_q t ~n:(clamp_n t tleft) ~age:0

(* Unrolls the argmax tables from state (n, age, δ) into [p]: the
   completion quantum of each checkpoint, as a float (exact). Every
   segment spans at least one quantum, so at most [n] of them. *)
let unroll_q t (p : Sim.Plan.t) ~n ~age ~delta =
  Sim.Plan.clear p;
  Sim.Plan.reserve p n;
  (* After a recovery (age 0) the first segment comes from the
     recovering table; every later one from the fresh table at the age
     reached. *)
  let i = ref (if delta then t.ir.(n) else Tables.Itri.get t.iv n age) in
  let n = ref n and a = ref age and base = ref 0 in
  while !i <> 0 do
    base := !base + !i;
    p.offsets.(p.len) <- float_of_int !base;
    p.len <- p.len + 1;
    n := !n - !i;
    a := !a + !i;
    i := Tables.Itri.get t.iv !n !a
  done

let plan_q t ~n ~age ~delta =
  check t ~n ~age;
  if delta && age <> 0 then
    invalid_arg "Dp_renewal.plan_q: recovery only happens at age 0";
  let p = Sim.Plan.create () in
  unroll_q t p ~n ~age ~delta;
  List.map int_of_float (Sim.Plan.to_list p)

let policy t =
  let plan (p : Sim.Plan.t) ~tleft ~recovering =
    let n = clamp_n t tleft in
    if n = 0 then Sim.Plan.clear p
    else begin
      unroll_q t p ~n ~age:0 ~delta:recovering;
      for i = 0 to p.len - 1 do
        p.offsets.(i) <- p.offsets.(i) *. t.u
      done
    end
  in
  Sim.Policy.make ~name:"RenewalDP" plan

let bytes t =
  Tables.Tri.bytes t.v + Tables.Itri.bytes t.iv
  + (8 * (Array.length t.vr + Array.length t.ir))
