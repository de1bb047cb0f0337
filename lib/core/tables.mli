(** Flat, single-allocation numeric tables for the DP cores.

    The dynamic programs of {!Dp} and {!Dp_renewal} are table-bound:
    their state spaces are dense 2-D (or triangular) grids of float
    values and small integer indices, filled once bottom-up and then
    read on every policy re-plan. Boxed [float array array] /
    [int array array] state scatters rows across the heap (one header
    and one pointer indirection per row) and stores every index in a
    full native word. This module replaces that state with flat
    [Bigarray] buffers:

    - {!F} — row-major Float64 matrix in one allocation; reads on the
      hot path go through {!F.data} + {!F.row} with
      [Bigarray.Array1.unsafe_get], which the compiler turns into a
      direct unboxed load;
    - {!I} — row-major integer matrix whose element width is chosen
      from the declared value range at creation: int16 when every value
      fits (the common case — DP indices are quanta counts), int32
      otherwise;
    - {!Tri} / {!Itri} — lower-storage triangular variants for the
      age-indexed renewal DP, where row [n] only holds columns
      [0 .. side - n].

    All tables are zero-filled at creation, matching the DP convention
    that an unreachable state has value 0 and index 0 ("no
    checkpoint"). Safe accessors ([get]/[set]) bounds-check; the raw
    [data]/[row] escape hatch is for the build loops, which own their
    index arithmetic. *)

type farr = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
(** The underlying flat Float64 buffer, exposed for unsafe hot-path
    access ([Bigarray.Array1.unsafe_get]). *)

val quanta_count : who:string -> quantum:float -> horizon:float -> int
(** [quanta_count ~who ~quantum ~horizon] is T* = floor(horizon /
    quantum), the whole quanta a DP table over [horizon] spans. Raises
    [Invalid_argument], prefixed with [who], unless [quantum] is finite
    and positive, [horizon] is finite and at least one quantum, and T*
    is below [Sys.max_array_length]: a NaN, infinite or overflowing
    ratio would otherwise truncate to a silently empty table. *)

module F : sig
  type t

  val create : rows:int -> cols:int -> t
  (** Zero-filled [rows × cols] Float64 matrix in one allocation. *)

  val rows : t -> int
  val cols : t -> int

  val get : t -> int -> int -> float
  (** [get t r c]; bounds-checked. *)

  val set : t -> int -> int -> float -> unit

  val data : t -> farr
  (** The flat buffer; element [(r, c)] lives at [row t r + c]. *)

  val row : t -> int -> int
  (** Offset of row [r] in {!data} ([r * cols]). Raises
      [Invalid_argument] when [r] is outside [0, rows). *)

  val words : t -> int
  (** Heap footprint in 8-byte words (for bench accounting). *)

  val bytes : t -> int
  (** Exact buffer footprint in bytes: [8 * rows * cols]. The unit the
      cache memory bound is expressed in — no guessing from [words]
      rounding. *)
end

module I : sig
  type t

  val create : rows:int -> cols:int -> max_value:int -> t
  (** Zero-filled [rows × cols] integer matrix able to hold values in
      [[0, max_value]]: int16 storage when [max_value <= 32767], int32
      otherwise. Raises [Invalid_argument] on a negative [max_value] or
      one beyond int32 range. *)

  val rows : t -> int
  val cols : t -> int

  val get : t -> int -> int -> int
  val set : t -> int -> int -> int -> unit

  val set_row : t -> int -> int array -> unit
  (** [set_row t r src] copies [src] (length = [cols t]) into row [r]. *)

  val bytes_per_cell : t -> int
  (** 2 or 4 — which width the value range selected. *)

  val bytes : t -> int
  (** Exact buffer footprint in bytes:
      [rows * cols * bytes_per_cell]. *)

  val words : t -> int
end

module Tri : sig
  type t
  (** Lower-triangular Float64 table: rows [0 .. side], row [n] holds
      columns [0 .. side - n], all in one flat allocation of
      [(side + 1)(side + 2)/2] cells. *)

  val create : side:int -> t
  val side : t -> int
  val get : t -> int -> int -> float
  val set : t -> int -> int -> float -> unit

  val data : t -> farr
  val row : t -> int -> int
  (** Offset of row [n] in {!data}: element [(n, a)] lives at
      [row t n + a] for [a <= side - n]. *)

  val bytes : t -> int
  (** Exact buffer footprint in bytes: [8 * (side + 1)(side + 2)/2]. *)

  val words : t -> int
end

module Itri : sig
  type t
  (** Triangular integer table with the same width selection as {!I}. *)

  val create : side:int -> max_value:int -> t
  val side : t -> int
  val get : t -> int -> int -> int
  val set : t -> int -> int -> int -> unit

  val bytes : t -> int
  (** Exact buffer footprint in bytes: triangle cells times the selected
      cell width (2 or 4). *)

  val words : t -> int
end
