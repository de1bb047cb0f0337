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

let acc_mean acc = if acc.n = 0 then nan else acc.mu

let acc_variance acc =
  if acc.n < 2 then nan else acc.m2 /. float_of_int (acc.n - 1)

let acc_min acc = if acc.n = 0 then nan else acc.lo
let acc_max acc = if acc.n = 0 then nan else acc.hi

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
  let stddev = if count < 2 then 0.0 else sqrt (acc_variance acc) in
  let ci95_half_width =
    if count < 2 then 0.0 else 1.96 *. stddev /. sqrt (float_of_int count)
  in
  { count; mean; stddev; min = acc_min acc; max = acc_max acc; ci95_half_width }
