(** Small, dependency-free content checksums (FNV-1a, 64 bit).

    Used to fingerprint on-disk artefacts (trace files, campaign
    journals) and experiment specs so that corruption and mismatched
    resumes are detected before they silently skew results. Not
    cryptographic — the adversary here is a truncated write or a stale
    file, not a forger. *)

val fnv1a64 : string -> int64
(** Digest of every byte of a string. *)

val fnv1a64_sub : string -> int -> int -> int64
(** [fnv1a64_sub s off len] is [fnv1a64 (String.sub s off len)], read in
    place — for checking a frame inside a receive buffer without copying
    it out. Raises [Invalid_argument] when the range is not within [s]. *)

val to_hex : int64 -> string
(** Fixed-width (16 chars) lowercase hex rendering of a digest. *)

val fold_int : int64 -> int -> int64
(** [fold_int h x] mixes the 8 little-endian bytes of [x] into digest
    [h]. *)

val to_unit_float : int64 -> float
(** Map a digest to [\[0, 1)] using its top 53 bits. Used for
    deterministic, order-independent pseudo-random decisions (chaos
    injection, retry jitter). *)
