(** Graceful numerical degradation.

    A solver that fails to converge in the middle of a multi-hour sweep
    should not abort it: the caller usually has a safe closed-form
    fallback (Young/Daly instead of the numerical threshold, the equal
    split instead of the optimised offsets). [protect] runs the primary
    computation, and on a recoverable exception substitutes the fallback
    while recording a structured warning, so degradations are visible in
    reports instead of silently swallowed or fatally raised.

    The warning store is global and thread-safe (campaign tasks run on
    multiple domains). *)

type warning = {
  context : string;  (** where the degradation happened, with parameters *)
  detail : string;  (** the exception that triggered it *)
  fallback : string;  (** what was used instead *)
}

val protect :
  context:string -> recover:(exn -> (string * 'a) option) -> (unit -> 'a) -> 'a
(** [protect ~context ~recover f] returns [f ()]. If [f] raises [e] and
    [recover e = Some (what, v)], a warning is recorded and [v] is
    returned; if [recover e = None] the exception propagates unchanged
    (so genuine bugs still surface). *)

val record : context:string -> detail:string -> fallback:string -> unit
(** Record a degradation that was handled by other means. *)

val drain : unit -> warning list
(** All warnings recorded since the last [drain], oldest first; clears
    the store. *)

val peek : unit -> warning list
(** Like {!drain} without clearing. *)

val pp_warning : Format.formatter -> warning -> unit
