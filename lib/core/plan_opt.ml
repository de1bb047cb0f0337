type objective = {
  offsets : float list;
  expected_work : float;
  converged : bool;
}

let expected_work ~params ~tleft ~recovering ~continuation ~offsets =
  let { Fault.Params.lambda; c; r; d } = params in
  let base = if recovering then r else 0.0 in
  match offsets with
  | [] -> 0.0
  | _ ->
      let offs = Array.of_list offsets in
      let k = Array.length offs in
      (* committed work after checkpoint j (1-based); index 0 = none *)
      let committed = Array.make (k + 1) 0.0 in
      for j = 1 to k do
        let prev = if j = 1 then 0.0 else offs.(j - 2) in
        let overhead = c +. (if j = 1 then base else 0.0) in
        committed.(j) <-
          committed.(j - 1) +. Float.max 0.0 (offs.(j - 1) -. prev -. overhead)
      done;
      let acc = ref (exp (-.lambda *. offs.(k - 1)) *. committed.(k)) in
      (* failure during segment j+1 (between o_j and o_{j+1}) *)
      for j = 0 to k - 1 do
        let lo = if j = 0 then 0.0 else offs.(j - 1) in
        let hi = offs.(j) in
        if hi > lo then begin
          let f t =
            lambda *. exp (-.lambda *. t)
            *. (committed.(j) +. continuation (tleft -. t -. d))
          in
          (* Fixed-panel Simpson: the integrand is smooth except for the
             (piecewise) continuation, so a moderate panel count is
             enough for the optimisation's purposes. *)
          acc := !acc +. Numerics.Integrate.simpson ~f ~lo ~hi ~n:64
        end
      done;
      !acc

let feasible ~params ~tleft ~recovering offs =
  let c = params.Fault.Params.c and r = params.Fault.Params.r in
  let base = if recovering then r else 0.0 in
  let k = Array.length offs in
  let ok = ref (k > 0 && offs.(0) >= base +. c && offs.(k - 1) <= tleft) in
  for j = 1 to k - 1 do
    if offs.(j) -. offs.(j - 1) < c then ok := false
  done;
  !ok

let equal_start ~params ~tleft ~recovering ~k =
  let c = params.Fault.Params.c and r = params.Fault.Params.r in
  let base = if recovering then r else 0.0 in
  let span = tleft -. base in
  if span < float_of_int k *. c then None
  else
    Some
      (Array.init k (fun j ->
           base +. (float_of_int (j + 1) *. span /. float_of_int k)))

let optimize ?(restarts = 3) ~params ~tleft ~recovering ~k ~continuation () =
  if k < 1 then invalid_arg "Plan_opt.optimize: k < 1";
  match equal_start ~params ~tleft ~recovering ~k with
  | None -> { offsets = []; expected_work = 0.0; converged = true }
  | Some start ->
      let objective offs =
        if feasible ~params ~tleft ~recovering offs then
          expected_work ~params ~tleft ~recovering ~continuation
            ~offsets:(Array.to_list offs)
        else neg_infinity
      in
      let perturb factor =
        (* squeeze the plan towards the start of the reservation,
           a direction the examples of Section 4 suggest is useful *)
        Array.map (fun o -> o -. (factor *. (tleft -. o) /. 4.0)) start
      in
      let starts =
        start
        :: List.init (max 0 (restarts - 1)) (fun i ->
               perturb (float_of_int (i + 1) /. float_of_int restarts))
      in
      let best = ref None in
      List.iter
        (fun x0 ->
          if feasible ~params ~tleft ~recovering x0 then begin
            let r = Numerics.Neldermead.maximize ~max_iter:400 ~f:objective x0 in
            match !best with
            | Some (b : Numerics.Neldermead.result) when b.value >= r.value -> ()
            | _ -> best := Some r
          end)
        starts;
      let warn_fallback detail =
        Robust.Guard.record
          ~context:
            (Printf.sprintf "Plan_opt.optimize: k=%d, tleft=%g, %s" k tleft
               (Fault.Params.to_string params))
          ~detail
          ~fallback:"equal-segment (Young/Daly-style) split"
      in
      (match !best with
      | None ->
          warn_fallback "no feasible Nelder-Mead start";
          {
            offsets = Array.to_list start;
            expected_work = objective start;
            converged = false;
          }
      | Some r ->
          if not r.converged then
            warn_fallback
              "Nelder-Mead did not converge; keeping best of (search, \
               equal split)";
          (* keep the best of (optimised, equal start): Nelder-Mead can
             wander on flat plateaus *)
          let eq_value = objective start in
          if eq_value > r.value then
            { offsets = Array.to_list start; expected_work = eq_value;
              converged = r.converged }
          else begin
            let offsets = Array.to_list r.x in
            { offsets = List.sort compare offsets; expected_work = r.value;
              converged = r.converged }
          end)

let variable_segments_policy ~params ~horizon ~opt =
  let table = Threshold.table_numerical ~params ~up_to:horizon in
  let u = Optimal.quantum opt in
  let continuation tleft' =
    if tleft' <= 0.0 then 0.0
    else begin
      let n =
        min (Optimal.horizon_quanta opt) (int_of_float (floor (tleft' /. u)))
      in
      if n < 1 then 0.0 else Optimal.value_q opt ~n ~delta:true
    end
  in
  (* Memoise per (quantised tleft, recovering): simulations query the
     same states over and over. *)
  let cache : (int * bool, float array) Hashtbl.t = Hashtbl.create 256 in
  let plan (p : Sim.Plan.t) ~tleft ~recovering =
    let key = (int_of_float (floor (tleft /. u +. 1e-9)), recovering) in
    let offsets =
      match Hashtbl.find_opt cache key with
      | Some offsets ->
          (* cached plans were computed for the quantised tleft, which
             is never larger than the true one: always feasible *)
          offsets
      | None ->
          let qtleft = float_of_int (fst key) *. u in
          let span =
            if recovering then qtleft -. params.Fault.Params.r else qtleft
          in
          let offsets =
            if span < params.Fault.Params.c then [||]
            else begin
              let k = Threshold.segments_for table ~tleft:span in
              Array.of_list
                (optimize ~params ~tleft:qtleft ~recovering ~k ~continuation ())
                  .offsets
            end
          in
          Hashtbl.replace cache key offsets;
          offsets
    in
    let n = Array.length offsets in
    Sim.Plan.reserve p n;
    Array.blit offsets 0 p.offsets 0 n;
    p.len <- n
  in
  Sim.Policy.make ~name:"VariableSegments" plan
