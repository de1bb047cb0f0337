type grid = { quantum : float; values : float array }

let quanta_of ~quantum x = int_of_float (Float.round (x /. quantum))

let check_multiple ~quantum name x =
  let q = quanta_of ~quantum x in
  if abs_float ((float_of_int q *. quantum) -. x) > 1e-6 *. (1.0 +. abs_float x)
  then
    Format.kasprintf invalid_arg
      "Expected: %s = %g is not a multiple of the quantum %g" name x quantum

(* Solve the Volterra-type recursion on a uniform grid by building values
   for increasing T. With D = 0 the integrand at t = 0 references the
   value being computed; the trapezoid half-weight term is moved to the
   left-hand side. *)
let single_final_value ~params ~quantum ~horizon =
  let { Fault.Params.lambda; c; r; d } = params in
  check_multiple ~quantum "C" c;
  check_multiple ~quantum "R" r;
  check_multiple ~quantum "D" d;
  let h = quantum in
  let n = quanta_of ~quantum horizon in
  let cq = quanta_of ~quantum c
  and rq = quanta_of ~quantum r
  and dq = quanta_of ~quantum d in
  let er = Array.make (n + 1) 0.0 in
  let e = Array.make (n + 1) 0.0 in
  (* Integral ∫₀^{U} λ e^{-λt} v(T - t - D) dt on the grid, where v = er
     and U = (i - dq - rq - cq) h. Self-referencing j = 0 term (D = 0
     only) is excluded and returned separately as its trapezoid weight. *)
  let integral_tail i =
    let upper = i - dq - rq - cq in
    if upper <= 0 then 0.0
    else begin
      let acc = ref 0.0 in
      for j = 0 to upper do
        let weight = if j = 0 || j = upper then 0.5 else 1.0 in
        let arg = i - j - dq in
        let value = if arg >= 0 && arg <= n then er.(arg) else 0.0 in
        if not (j = 0 && dq = 0) then
          acc :=
            !acc
            +. (weight *. lambda *. exp (-.lambda *. float_of_int j *. h) *. value)
      done;
      !acc *. h
    end
  in
  let self_weight i =
    (* Trapezoid weight of the excluded j = 0 term when D = 0. *)
    let upper = i - dq - rq - cq in
    if dq = 0 && upper > 0 then 0.5 *. h *. lambda else 0.0
  in
  for i = 0 to n do
    let t = float_of_int i *. h in
    (* Strategy value starting with a recovery. *)
    if i > rq + cq then begin
      let base = exp (-.lambda *. t) *. (t -. r -. c) in
      let tail = integral_tail i in
      er.(i) <- (base +. tail) /. (1.0 -. self_weight i)
    end;
    (* Strategy value without initial recovery: same failure recursion,
       different no-failure work term. Note the recursion always falls
       back on [er], never on [e]. *)
    if i > cq then begin
      let base = exp (-.lambda *. t) *. (t -. c) in
      let upper = i - dq - rq - cq in
      let tail =
        if upper <= 0 then 0.0
        else begin
          let acc = ref 0.0 in
          for j = 0 to upper do
            let weight = if j = 0 || j = upper then 0.5 else 1.0 in
            let arg = i - j - dq in
            let value = if arg >= 0 && arg <= n then er.(arg) else 0.0 in
            acc :=
              !acc
              +. weight *. lambda
                 *. exp (-.lambda *. float_of_int j *. h)
                 *. value
          done;
          !acc *. h
        end
      in
      e.(i) <- base +. tail
    end
  done;
  ({ quantum; values = e }, { quantum; values = er })

let first_failure_value ~params ~recovering ~offsets =
  let { Fault.Params.lambda; c; r; d = _ } = params in
  let base = if recovering then r else 0.0 in
  let psucc x = exp (-.lambda *. x) in
  (* saved.(j): cumulative work once checkpoint j+1 has completed. *)
  let rec go prev cumulative first = function
    | [] -> 0.0
    | [ off ] ->
        let work = off -. prev -. c -. (if first then base else 0.0) in
        (cumulative +. work) *. psucc off
    | off :: (next :: _ as rest) ->
        let work = off -. prev -. c -. (if first then base else 0.0) in
        let cumulative = cumulative +. work in
        (cumulative *. (psucc off -. psucc next)) +. go off cumulative false rest
  in
  match offsets with [] -> 0.0 | _ -> go 0.0 0.0 true offsets

let gain_vs ~params ~offsets1 ~offsets2 =
  first_failure_value ~params ~recovering:false ~offsets:offsets1
  -. first_failure_value ~params ~recovering:false ~offsets:offsets2

let policy_value_grids ~params ~quantum ~horizon ~policy =
  let { Fault.Params.lambda; c = _; r = _; d } = params in
  let h = quantum in
  let n = quanta_of ~quantum horizon in
  let dq = quanta_of ~quantum d in
  let psucc_q i = exp (-.lambda *. float_of_int i *. h) in
  (* p.(f): probability the first failure strikes during quantum f. *)
  let p = Array.init (n + 2) (fun f -> psucc_q (f - 1) -. psucc_q f) in
  let v0 = Array.make (n + 1) 0.0 in
  let v1 = Array.make (n + 1) 0.0 in
  let buf = Sim.Plan.create () in
  let eval ~recovering ~store i =
    let tleft = float_of_int i *. h in
    Sim.Policy.query policy buf ~params ~tleft ~recovering;
    let offsets = Sim.Plan.to_list buf in
    match offsets with
    | [] -> ()
    | _ ->
        let qoffsets =
          (* Round completions UP to the next quantum boundary: a
             checkpoint is only safe once the whole quantum containing it
             has passed. This keeps the evaluator conservative, so the DP
             optimum (whose plans are exact quantum multiples) dominates
             every evaluated policy. *)
          List.filter_map
            (fun off ->
              let q = int_of_float (ceil ((off /. quantum) -. 1e-9)) in
              if q >= 1 && q <= i then Some (q, off) else None)
            offsets
        in
        (* Work per segment, from the continuous offsets (work is what
           the plan commits; quantisation only moves failure boundaries). *)
        let works =
          let rec go prev first = function
            | [] -> []
            | (q, off) :: rest ->
                let overhead =
                  params.Fault.Params.c
                  +. if first && recovering then params.Fault.Params.r else 0.0
                in
                (q, Float.max 0.0 (off -. prev -. overhead)) :: go off false rest
          in
          go 0.0 true qoffsets
        in
        let last_q = match List.rev works with [] -> 0 | (q, _) :: _ -> q in
        let total = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 works in
        let acc = ref (psucc_q last_q *. total) in
        (* committed work before each failure quantum, via a single sweep. *)
        let remaining = ref works in
        let committed = ref 0.0 in
        for f = 1 to last_q do
          let advancing = ref true in
          while !advancing do
            match !remaining with
            | (q, w) :: rest when q < f ->
                committed := !committed +. w;
                remaining := rest
            | _ -> advancing := false
          done;
          let n' = i - f - dq in
          let cont = if n' >= 1 then v1.(n') else 0.0 in
          acc := !acc +. (p.(f) *. (!committed +. cont))
        done;
        store.(i) <- !acc
  in
  for i = 1 to n do
    eval ~recovering:true ~store:v1 i;
    eval ~recovering:false ~store:v0 i
  done;
  ({ quantum; values = v0 }, { quantum; values = v1 })

let policy_value ~params ~quantum ~horizon ~policy =
  let v0, _ = policy_value_grids ~params ~quantum ~horizon ~policy in
  v0.values.(Array.length v0.values - 1)
