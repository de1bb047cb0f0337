exception Injected of string

type t = {
  failure_rate : float;
  delay_rate : float;
  delay : float;
  hang_rate : float;
  hang : unit -> unit;
  sleep : float -> unit;
  seed : int64;
  raised : int Atomic.t;
}

let check_rate name r =
  if r < 0.0 || r > 1.0 then
    invalid_arg (Printf.sprintf "Chaos.create: %s outside [0, 1]" name)

(* The default hang never returns: the task is gone for good unless a
   supervisor (Proc_pool's watchdog) kills its process. *)
let rec hang_forever () =
  Unix.sleepf 3600.0;
  hang_forever ()

let create ?(failure_rate = 0.0) ?(delay_rate = 0.0) ?(delay = 0.01)
    ?(hang_rate = 0.0) ?(hang = hang_forever) ?(sleep = Unix.sleepf) ~seed () =
  check_rate "failure_rate" failure_rate;
  check_rate "delay_rate" delay_rate;
  check_rate "hang_rate" hang_rate;
  if delay < 0.0 then invalid_arg "Chaos.create: delay < 0";
  {
    failure_rate;
    delay_rate;
    delay;
    hang_rate;
    hang;
    sleep;
    seed;
    raised = Atomic.make 0;
  }

let unit_draw t ~salt ~key ~attempt =
  let h = Numerics.Checksum.fnv1a64 salt in
  let h = Numerics.Checksum.fold_int h (Int64.to_int t.seed) in
  let h = Numerics.Checksum.fold_int h key in
  let h = Numerics.Checksum.fold_int h attempt in
  Numerics.Checksum.to_unit_float h

let should_fail t ~key ~attempt =
  unit_draw t ~salt:"chaos-fail" ~key ~attempt < t.failure_rate

let should_delay t ~key ~attempt =
  unit_draw t ~salt:"chaos-delay" ~key ~attempt < t.delay_rate

let should_hang t ~key ~attempt =
  unit_draw t ~salt:"chaos-hang" ~key ~attempt < t.hang_rate

let injected_failures t = Atomic.get t.raised

let inject t ~key ~attempt =
  if should_delay t ~key ~attempt then t.sleep t.delay;
  if should_fail t ~key ~attempt then begin
    Atomic.incr t.raised;
    raise
      (Injected
         (Printf.sprintf "chaos: injected failure (key %d, attempt %d)" key
            attempt))
  end;
  if should_hang t ~key ~attempt then t.hang ()
