let gain ~params ~t ~n =
  if n < 1 then invalid_arg "Threshold.gain: n < 1";
  if t <= 0.0 then invalid_arg "Threshold.gain: t <= 0";
  let open Fault.Params in
  let c = params.c in
  let fn = float_of_int n in
  let u = t /. (fn *. (fn +. 1.0)) in
  (* Loss if no failure strikes: one extra checkpoint. *)
  let acc = ref (-.psucc params t *. c) in
  (* Failure in slice A_m (m >= 1): Strat_n saved the m chunks of
     B_{m-1} that Strat_{n+1} had not yet committed. *)
  for m = 1 to n - 1 do
    let fm = float_of_int m in
    let start = fm *. (fn +. 1.0) *. u in
    let len = (fn -. fm) *. u in
    acc := !acc -. (psucc params start *. pfail params len *. (fm *. u))
  done;
  (* Failure in slice B_m: Strat_{n+1} saved the n - m chunks of A_m,
     minus its extra checkpoint. *)
  for m = 0 to n - 1 do
    let fm = float_of_int m in
    let start = (fm +. 1.0) *. fn *. u in
    let len = (fm +. 1.0) *. u in
    acc :=
      !acc
      +. (psucc params start *. pfail params len *. (((fn -. fm) *. u) -. c))
  done;
  !acc

let equal_offsets ~t ~n =
  let seg = t /. float_of_int n in
  List.init n (fun i -> float_of_int (i + 1) *. seg)

let gain_brute_force ~params ~t ~n =
  Expected.gain_vs ~params
    ~offsets1:(equal_offsets ~t ~n:(n + 1))
    ~offsets2:(equal_offsets ~t ~n)

let threshold_first_order ~params ~n =
  if n < 1 then invalid_arg "Threshold.threshold_first_order: n < 1";
  let open Fault.Params in
  let fn = float_of_int n in
  sqrt (2.0 *. fn *. (fn +. 1.0) *. params.c /. params.lambda)

let threshold_numerical ?t_prev ~params n =
  if n < 1 then invalid_arg "Threshold.threshold_numerical: n < 1";
  let open Fault.Params in
  let lower =
    Float.max
      (match t_prev with Some t -> t | None -> float_of_int n *. params.c)
      (float_of_int (n + 1) *. params.c)
  in
  let f t = gain ~params ~t ~n in
  if f lower >= 0.0 then lower
  else begin
    (* The gain starts negative (the extra checkpoint dominates), crosses
       zero near the first-order estimate and decays back to 0⁺ at
       infinity: scan left to right for the first sign change, then
       refine. If the solver cannot bracket or refine a crossing, degrade
       to the first-order (Young/Daly-style) closed form instead of
       aborting a sweep mid-flight; the substitution is recorded as a
       [Robust.Guard] warning. *)
    Robust.Guard.protect
      ~context:
        (Printf.sprintf "Threshold.threshold_numerical: n=%d, %s" n
           (Fault.Params.to_string params))
      ~recover:(function
        | Not_found | Numerics.Rootfind.No_bracket _ ->
            Some
              ( "first-order closed form sqrt(2n(n+1)C/lambda)",
                Float.max lower (threshold_first_order ~params ~n) )
        | _ -> None)
      (fun () ->
        let guess = threshold_first_order ~params ~n in
        let upper = Float.max (40.0 *. guess) (lower *. 4.0) in
        match
          Numerics.Rootfind.first_crossing ~f ~lo:lower ~hi:upper ~steps:4000
        with
        | None -> raise Not_found
        | Some (a, b) -> Numerics.Rootfind.brent ~f a b)
  end

type table = { thresholds : float array }

let build_table ~up_to next =
  if not (Float.is_finite up_to && up_to >= 0.0) then
    invalid_arg "Threshold: up_to must be finite and >= 0";
  let rec go acc t_prev n =
    let t_next = next ~t_prev ~n in
    if t_next > up_to then List.rev acc
    else go (t_next :: acc) t_next (n + 1)
  in
  { thresholds = Array.of_list (0.0 :: go [] 0.0 1) }

(* With C = 0 every threshold T_n collapses to 0 (an extra free
   checkpoint always pays), so the threshold sequence never exceeds
   [up_to] and [build_table] would not terminate: reject upfront. *)
let check_positive_c ~params fn =
  if params.Fault.Params.c <= 0.0 then
    invalid_arg (fn ^ ": thresholds degenerate for C = 0")

let table_numerical ~params ~up_to =
  check_positive_c ~params "Threshold.table_numerical";
  build_table ~up_to (fun ~t_prev ~n -> threshold_numerical ~t_prev ~params n)

let table_first_order ~params ~up_to =
  check_positive_c ~params "Threshold.table_first_order";
  build_table ~up_to (fun ~t_prev ~n ->
      Float.max t_prev (threshold_first_order ~params ~n))

let segments_for table ~tleft =
  let t = table.thresholds in
  let len = Array.length t in
  (* Largest n (1-based) with T_n <= tleft, by binary search — the
     thresholds are nondecreasing and t.(0) = 0 <= tleft always holds,
     so the invariant "t.(lo) <= tleft < t.(hi + 1)" closes on the
     answer in O(log n) instead of the former linear scan (called once
     per re-plan inside simulation loops). *)
  let lo = ref 0 and hi = ref (len - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if t.(mid) <= tleft then lo := mid else hi := mid - 1
  done;
  !lo + 1

let geometric_mean_approx ~params ~n =
  let open Fault.Params in
  let fn = float_of_int n in
  sqrt (fn *. (fn +. 1.0) *. 2.0 *. mtbf params *. params.c)
