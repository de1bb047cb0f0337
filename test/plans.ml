(* How the tests read and write plans: through fresh buffers, as
   lists. A stateful policy (the DP) advances its state on every read
   exactly as on an engine query. *)

(* [policy]'s plan for [(tleft, recovering)], in a fresh buffer. *)
let buffer (policy : Sim.Policy.t) ~tleft ~recovering =
  let p = Sim.Plan.create () in
  policy.Sim.Policy.plan p ~tleft ~recovering;
  p

let of_policy policy ~tleft ~recovering =
  Sim.Plan.to_list (buffer policy ~tleft ~recovering)

(* Replaces the contents of [p] with [offsets]. *)
let fill (p : Sim.Plan.t) offsets =
  let n = List.length offsets in
  Sim.Plan.reserve p n;
  List.iteri (fun i x -> p.offsets.(i) <- x) offsets;
  p.len <- n

let of_list offsets =
  let p = Sim.Plan.create () in
  fill p offsets;
  p
