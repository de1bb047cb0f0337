type farr = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

let check_dims ~what rows cols =
  if rows < 0 || cols < 0 then
    invalid_arg (Printf.sprintf "Tables.%s: negative dimensions" what)

let quanta_count ~who ~quantum ~horizon =
  if not (Float.is_finite quantum && quantum > 0.0) then
    invalid_arg (who ^ ": quantum must be finite and positive");
  if not (Float.is_finite horizon) then
    invalid_arg (who ^ ": horizon must be finite");
  if horizon < quantum then invalid_arg (who ^ ": horizon below one quantum");
  let q = (horizon /. quantum) +. 1e-9 in
  if q >= float_of_int Sys.max_array_length then
    invalid_arg (who ^ ": horizon spans too many quanta");
  int_of_float (floor q)

module F = struct
  type t = { rows : int; cols : int; data : farr }

  let create ~rows ~cols =
    check_dims ~what:"F.create" rows cols;
    let data = Bigarray.Array1.create Bigarray.Float64 Bigarray.C_layout (rows * cols) in
    Bigarray.Array1.fill data 0.0;
    { rows; cols; data }

  let rows t = t.rows
  let cols t = t.cols

  let check t r c =
    if r < 0 || r >= t.rows || c < 0 || c >= t.cols then
      invalid_arg
        (Printf.sprintf "Tables.F: (%d, %d) outside %d x %d" r c t.rows t.cols)

  let get t r c =
    check t r c;
    Bigarray.Array1.unsafe_get t.data ((r * t.cols) + c)

  let set t r c x =
    check t r c;
    Bigarray.Array1.unsafe_set t.data ((r * t.cols) + c) x

  let data t = t.data

  let row t r =
    if r < 0 || r >= t.rows then
      invalid_arg (Printf.sprintf "Tables.F.row: %d outside %d rows" r t.rows);
    r * t.cols

  let words t = t.rows * t.cols
  let bytes t = 8 * t.rows * t.cols
end

module I = struct
  type buf =
    | I16 of (int, Bigarray.int16_signed_elt, Bigarray.c_layout) Bigarray.Array1.t
    | I32 of (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

  type t = { rows : int; cols : int; buf : buf }

  let make_buf ~what ~cells ~max_value =
    if max_value < 0 then
      invalid_arg (Printf.sprintf "Tables.%s: negative max_value" what);
    if max_value <= 0x7FFF then begin
      let a = Bigarray.Array1.create Bigarray.Int16_signed Bigarray.C_layout cells in
      Bigarray.Array1.fill a 0;
      I16 a
    end
    else if max_value <= Int32.to_int Int32.max_int then begin
      let a = Bigarray.Array1.create Bigarray.Int32 Bigarray.C_layout cells in
      Bigarray.Array1.fill a 0l;
      I32 a
    end
    else invalid_arg (Printf.sprintf "Tables.%s: max_value beyond int32" what)

  let create ~rows ~cols ~max_value =
    check_dims ~what:"I.create" rows cols;
    let buf = make_buf ~what:"I.create" ~cells:(rows * cols) ~max_value in
    { rows; cols; buf }

  let rows t = t.rows
  let cols t = t.cols

  let check t r c =
    if r < 0 || r >= t.rows || c < 0 || c >= t.cols then
      invalid_arg
        (Printf.sprintf "Tables.I: (%d, %d) outside %d x %d" r c t.rows t.cols)

  let get t r c =
    check t r c;
    let i = (r * t.cols) + c in
    match t.buf with
    | I16 a -> Bigarray.Array1.unsafe_get a i
    | I32 a -> Int32.to_int (Bigarray.Array1.unsafe_get a i)

  let set t r c v =
    check t r c;
    let i = (r * t.cols) + c in
    match t.buf with
    | I16 a -> Bigarray.Array1.unsafe_set a i v
    | I32 a -> Bigarray.Array1.unsafe_set a i (Int32.of_int v)

  let set_row t r src =
    if Array.length src <> t.cols then
      invalid_arg "Tables.I.set_row: source length is not the column count";
    if r < 0 || r >= t.rows then invalid_arg "Tables.I.set_row: row outside table";
    let off = r * t.cols in
    match t.buf with
    | I16 a ->
        for c = 0 to t.cols - 1 do
          Bigarray.Array1.unsafe_set a (off + c) (Array.unsafe_get src c)
        done
    | I32 a ->
        for c = 0 to t.cols - 1 do
          Bigarray.Array1.unsafe_set a (off + c)
            (Int32.of_int (Array.unsafe_get src c))
        done

  let bytes_per_cell t = match t.buf with I16 _ -> 2 | I32 _ -> 4
  let bytes t = t.rows * t.cols * bytes_per_cell t
  let words t = (bytes t + 7) / 8
end

(* Triangular layout shared by Tri and Itri: row n of a side-s table
   holds columns 0 .. s - n and starts at offset
   n (s + 1) - n (n - 1) / 2. *)
let tri_cells side = (side + 1) * (side + 2) / 2
let tri_off side n = (n * (side + 1)) - (n * (n - 1) / 2)

let tri_check ~what side n a =
  if n < 0 || n > side || a < 0 || a > side - n then
    invalid_arg
      (Printf.sprintf "Tables.%s: (%d, %d) outside triangle of side %d" what n a
         side)

module Tri = struct
  type t = { side : int; data : farr }

  let create ~side =
    if side < 0 then invalid_arg "Tables.Tri.create: negative side";
    let data = Bigarray.Array1.create Bigarray.Float64 Bigarray.C_layout (tri_cells side) in
    Bigarray.Array1.fill data 0.0;
    { side; data }

  let side t = t.side

  let get t n a =
    tri_check ~what:"Tri" t.side n a;
    Bigarray.Array1.unsafe_get t.data (tri_off t.side n + a)

  let set t n a x =
    tri_check ~what:"Tri" t.side n a;
    Bigarray.Array1.unsafe_set t.data (tri_off t.side n + a) x

  let data t = t.data

  let row t n =
    if n < 0 || n > t.side then
      invalid_arg (Printf.sprintf "Tables.Tri.row: %d outside side %d" n t.side);
    tri_off t.side n

  let words t = tri_cells t.side
  let bytes t = 8 * tri_cells t.side
end

module Itri = struct
  type t = { side : int; buf : I.buf }

  let create ~side ~max_value =
    if side < 0 then invalid_arg "Tables.Itri.create: negative side";
    {
      side;
      buf = I.make_buf ~what:"Itri.create" ~cells:(tri_cells side) ~max_value;
    }

  let side t = t.side

  let get t n a =
    tri_check ~what:"Itri" t.side n a;
    let i = tri_off t.side n + a in
    match t.buf with
    | I.I16 b -> Bigarray.Array1.unsafe_get b i
    | I.I32 b -> Int32.to_int (Bigarray.Array1.unsafe_get b i)

  let set t n a v =
    tri_check ~what:"Itri" t.side n a;
    let i = tri_off t.side n + a in
    match t.buf with
    | I.I16 b -> Bigarray.Array1.unsafe_set b i v
    | I.I32 b -> Bigarray.Array1.unsafe_set b i (Int32.of_int v)

  let bytes_per_cell t = match t.buf with I.I16 _ -> 2 | I.I32 _ -> 4
  let bytes t = tri_cells t.side * bytes_per_cell t
  let words t = (bytes t + 7) / 8
end
