(* FNV-1a, 64-bit: digest = (digest lxor byte) * prime, starting from the
   offset basis. Chosen for being tiny and portable; collisions on
   accidental corruption are what matters, not adversarial ones. *)

let offset_basis = 0xcbf29ce484222325L
let prime = 0x100000001b3L

(* [b] is a byte, in [0, 255]. *)
let fold_byte h b = Int64.mul (Int64.logxor h (Int64.of_int b)) prime

(* The accumulator is a local [ref] that never escapes and [fold_byte] is
   inlined, so ocamlopt keeps it unboxed: only the returned digest is
   allocated (test_serve pins this). *)
let fnv1a64_sub s off len =
  if off < 0 || len < 0 || off > String.length s - len then
    invalid_arg "Checksum.fnv1a64_sub";
  let h = ref offset_basis in
  for i = off to off + len - 1 do
    h := fold_byte !h (Char.code (String.unsafe_get s i))
  done;
  !h

let fnv1a64 s = fnv1a64_sub s 0 (String.length s)

let to_hex h =
  let b = Bytes.create 16 in
  for i = 0 to 15 do
    let nibble = Int64.to_int (Int64.shift_right_logical h (60 - (4 * i))) in
    Bytes.unsafe_set b i "0123456789abcdef".[nibble land 15]
  done;
  Bytes.unsafe_to_string b

let fold_int h x =
  let h = ref h and x = Int64.of_int x in
  for shift = 0 to 7 do
    h :=
      fold_byte !h
        (Int64.to_int (Int64.shift_right_logical x (shift * 8)) land 0xff)
  done;
  !h

let to_unit_float h =
  (* Same top-53-bits construction as Rng.float: uniform enough for
     rate thresholds. *)
  Int64.to_float (Int64.shift_right_logical h 11) *. 0x1.0p-53
