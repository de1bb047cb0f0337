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

(* P² streaming quantile estimator (Jain & Chlamtac, CACM 1985): five
   markers track (min, q/2-ish, q, (1+q)/2-ish, max); marker heights are
   adjusted with a piecewise-parabolic interpolation as observations
   stream by. O(1) memory per quantile, ~3 significant digits of
   accuracy on smooth distributions — the streaming companion to the
   exact sort-based {!quantile} below. *)
module P2 = struct
  type t = {
    q : float;  (** target quantile *)
    heights : float array;  (** marker heights q0..q4 *)
    pos : float array;  (** marker positions n0..n4 (1-based) *)
    want : float array;  (** desired positions n'0..n'4 *)
    dwant : float array;  (** desired-position increments *)
    first : float array;  (** buffer for the first five observations *)
    mutable count : int;
  }

  let create ~q =
    if q < 0.0 || q > 1.0 then invalid_arg "Stats.P2.create: q outside [0, 1]";
    {
      q;
      heights = Array.make 5 0.0;
      pos = [| 1.0; 2.0; 3.0; 4.0; 5.0 |];
      want = [| 1.0; 1.0 +. (2.0 *. q); 1.0 +. (4.0 *. q); 3.0 +. (2.0 *. q); 5.0 |];
      dwant = [| 0.0; q /. 2.0; q; (1.0 +. q) /. 2.0; 1.0 |];
      first = Array.make 5 0.0;
      count = 0;
    }

  let count t = t.count

  let parabolic t i d =
    let q = t.heights and n = t.pos in
    q.(i)
    +. d
       /. (n.(i + 1) -. n.(i - 1))
       *. (((n.(i) -. n.(i - 1) +. d) *. (q.(i + 1) -. q.(i)) /. (n.(i + 1) -. n.(i)))
          +. ((n.(i + 1) -. n.(i) -. d) *. (q.(i) -. q.(i - 1)) /. (n.(i) -. n.(i - 1))))

  let linear t i d =
    let q = t.heights and n = t.pos in
    q.(i) +. (d *. (q.(i + int_of_float d) -. q.(i)) /. (n.(i + int_of_float d) -. n.(i)))

  let add t x =
    if t.count < 5 then begin
      t.first.(t.count) <- x;
      t.count <- t.count + 1;
      if t.count = 5 then begin
        let sorted = Array.copy t.first in
        Array.sort compare sorted;
        Array.blit sorted 0 t.heights 0 5
      end
    end
    else begin
      t.count <- t.count + 1;
      let q = t.heights and n = t.pos in
      (* Cell of the new observation; extremes also update the end markers. *)
      let k =
        if x < q.(0) then begin
          q.(0) <- x;
          0
        end
        else if x >= q.(4) then begin
          q.(4) <- x;
          3
        end
        else begin
          let k = ref 0 in
          for i = 0 to 3 do
            if q.(i) <= x && x < q.(i + 1) then k := i
          done;
          !k
        end
      in
      for i = k + 1 to 4 do
        n.(i) <- n.(i) +. 1.0
      done;
      for i = 0 to 4 do
        t.want.(i) <- t.want.(i) +. t.dwant.(i)
      done;
      (* Nudge the inner markers toward their desired positions. *)
      for i = 1 to 3 do
        let d = t.want.(i) -. n.(i) in
        if
          (d >= 1.0 && n.(i + 1) -. n.(i) > 1.0)
          || (d <= -1.0 && n.(i - 1) -. n.(i) < -1.0)
        then begin
          let d = if d >= 0.0 then 1.0 else -1.0 in
          let candidate = parabolic t i d in
          let candidate =
            if q.(i - 1) < candidate && candidate < q.(i + 1) then candidate
            else linear t i d
          in
          q.(i) <- candidate;
          n.(i) <- n.(i) +. d
        end
      done
    end

  let exact_small t =
    let sorted = Array.sub t.first 0 t.count in
    Array.sort compare sorted;
    let n = Array.length sorted in
    let pos = t.q *. float_of_int (n - 1) in
    let lo = int_of_float (floor pos) in
    let hi = int_of_float (ceil pos) in
    if lo = hi then sorted.(lo)
    else begin
      let w = pos -. float_of_int lo in
      ((1.0 -. w) *. sorted.(lo)) +. (w *. sorted.(hi))
    end

  let value t =
    if t.count = 0 then nan
    else if t.count <= 5 then exact_small t
    else t.heights.(2)
end

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
