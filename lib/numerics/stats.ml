type accumulator = {
  mutable n : int;
  mutable mu : float;
  mutable m2 : float;
  mutable lo : float;
  mutable hi : float;
}

let acc_create () =
  { n = 0; mu = 0.0; m2 = 0.0; lo = infinity; hi = neg_infinity }

let acc_add acc x =
  acc.n <- acc.n + 1;
  let delta = x -. acc.mu in
  acc.mu <- acc.mu +. (delta /. float_of_int acc.n);
  acc.m2 <- acc.m2 +. (delta *. (x -. acc.mu));
  if x < acc.lo then acc.lo <- x;
  if x > acc.hi then acc.hi <- x

let acc_count acc = acc.n
let acc_mean acc = if acc.n = 0 then nan else acc.mu

let acc_variance acc =
  if acc.n < 2 then nan else acc.m2 /. float_of_int (acc.n - 1)

let acc_stddev acc = sqrt (acc_variance acc)
let acc_min acc = if acc.n = 0 then nan else acc.lo
let acc_max acc = if acc.n = 0 then nan else acc.hi

let acc_merge a b =
  if a.n = 0 then { b with n = b.n }
  else if b.n = 0 then { a with n = a.n }
  else begin
    let n = a.n + b.n in
    let delta = b.mu -. a.mu in
    let mu = a.mu +. (delta *. float_of_int b.n /. float_of_int n) in
    let m2 =
      a.m2 +. b.m2
      +. (delta *. delta *. float_of_int a.n *. float_of_int b.n /. float_of_int n)
    in
    { n; mu; m2; lo = Float.min a.lo b.lo; hi = Float.max a.hi b.hi }
  end

type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  ci95_half_width : float;
}

let summarize acc =
  let count = acc.n in
  let mean = acc_mean acc in
  let stddev = if count < 2 then 0.0 else acc_stddev acc in
  let ci95_half_width =
    if count < 2 then 0.0 else 1.96 *. stddev /. sqrt (float_of_int count)
  in
  { count; mean; stddev; min = acc_min acc; max = acc_max acc; ci95_half_width }

let of_array xs =
  let acc = acc_create () in
  Array.iter (acc_add acc) xs;
  summarize acc

let mean xs = (of_array xs).mean

let variance xs =
  let acc = acc_create () in
  Array.iter (acc_add acc) xs;
  acc_variance acc

let stddev xs = sqrt (variance xs)

let quantiles xs ~qs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.quantile: empty array";
  Array.iter
    (fun q ->
      if q < 0.0 || q > 1.0 then invalid_arg "Stats.quantile: q outside [0, 1]")
    qs;
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  Array.map
    (fun q ->
      let pos = q *. float_of_int (n - 1) in
      let lo = int_of_float (floor pos) in
      let hi = int_of_float (ceil pos) in
      if lo = hi then sorted.(lo)
      else begin
        let w = pos -. float_of_int lo in
        ((1.0 -. w) *. sorted.(lo)) +. (w *. sorted.(hi))
      end)
    qs

let quantile xs ~q = (quantiles xs ~qs:[| q |]).(0)

let median xs = quantile xs ~q:0.5
