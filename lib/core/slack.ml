let with_slack ~params ~slack policy =
  if slack < 0.0 then invalid_arg "Slack.with_slack: negative slack";
  let c = params.Fault.Params.c and r = params.Fault.Params.r in
  let plan (p : Sim.Plan.t) ~tleft ~recovering =
    policy.Sim.Policy.plan p ~tleft ~recovering;
    let n = p.len in
    if n > 0 then begin
      (* keep the final segment long enough for its checkpoint *)
      let base = if recovering then r else 0.0 in
      let last = Float.max (base +. c) (p.offsets.(n - 1) -. slack) in
      (* if the shifted final checkpoint collides with its predecessor,
         clamp against it instead *)
      let last =
        if n >= 2 && last < p.offsets.(n - 2) +. c then
          Float.max (p.offsets.(n - 2) +. c) last
        else last
      in
      p.offsets.(n - 1) <- last
    end
  in
  Sim.Policy.make
    ~name:(Printf.sprintf "%s+slack(%g)" policy.Sim.Policy.name slack)
    plan

let erlang_cdf ~shape ~mean x =
  if shape < 1 then invalid_arg "Slack.erlang_cdf: shape < 1";
  if mean <= 0.0 then invalid_arg "Slack.erlang_cdf: mean <= 0";
  if x <= 0.0 then 0.0
  else begin
    let rate = float_of_int shape /. mean in
    let y = rate *. x in
    (* P(X <= x) = 1 - e^{-y} sum_{i<shape} y^i / i! *)
    let term = ref 1.0 and acc = ref 1.0 in
    for i = 1 to shape - 1 do
      term := !term *. y /. float_of_int i;
      acc := !acc +. !term
    done;
    1.0 -. (exp (-.y) *. !acc)
  end

let first_order_slack ~params ~shape ~tleft =
  let c = params.Fault.Params.c in
  let w_last =
    Float.min (Model.young_daly_period params) (Float.max 0.0 (tleft -. c))
  in
  if w_last <= 0.0 then 0.0
  else begin
    (* maximise F(c + s) * (w_last - s) over s in [0, w_last] by
       golden-section search (unimodal: increasing cdf times a
       decreasing affine factor). *)
    let value s = erlang_cdf ~shape ~mean:c (c +. s) *. (w_last -. s) in
    let phi = (sqrt 5.0 -. 1.0) /. 2.0 in
    let lo = ref 0.0 and hi = ref w_last in
    let x1 = ref (!hi -. (phi *. (!hi -. !lo))) in
    let x2 = ref (!lo +. (phi *. (!hi -. !lo))) in
    let f1 = ref (value !x1) and f2 = ref (value !x2) in
    while !hi -. !lo > 1e-6 *. (1.0 +. w_last) do
      if !f1 < !f2 then begin
        lo := !x1;
        x1 := !x2;
        f1 := !f2;
        x2 := !lo +. (phi *. (!hi -. !lo));
        f2 := value !x2
      end
      else begin
        hi := !x2;
        x2 := !x1;
        f2 := !f1;
        x1 := !hi -. (phi *. (!hi -. !lo));
        f1 := value !x1
      end
    done;
    let s = 0.5 *. (!lo +. !hi) in
    if value s <= value 0.0 then 0.0 else s
  end

let tune ?(grid = 16) ~params ~fresh_sampler ~policy_of_slack ~horizon traces =
  if grid < 1 then invalid_arg "Slack.tune: grid < 1";
  let c = params.Fault.Params.c in
  let best = ref (0.0, neg_infinity) in
  for i = 0 to grid do
    let slack = 2.0 *. c *. float_of_int i /. float_of_int grid in
    let policy = policy_of_slack slack in
    let r =
      Sim.Runner.evaluate ~ckpt_sampler:(fresh_sampler ()) ~params ~horizon
        ~policy traces
    in
    let mean = r.Sim.Runner.proportion.Numerics.Stats.mean in
    if mean > snd !best then best := (slack, mean)
  done;
  !best
