(* Shared helpers: sample statistics, process memory, the result record
   run.py reads from the last line of stdout. *)

let now = Unix.gettimeofday

(* Type-7 quantile of an unsorted sample (linear interpolation). *)
let quantile xs q =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  match Array.length a with
  | 0 -> 0.0
  | n ->
      let h = q *. float_of_int (n - 1) in
      let lo = int_of_float h in
      let hi = min (n - 1) (lo + 1) in
      a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5

(* Host speed. A shared two-vCPU VM can run the same fixed loop 60%
   slower from one second to the next, and a 30-second run's median
   can drift by 20% from the next run's, with no steal to show for it.
   [reference ~domains] times fixed work that depends on nothing in the
   library on [domains] domains at once, so it feels the same host as
   work spread over that many cores. A timing taken between two
   reference timings, scaled by [reference_nominal_s] over their mean,
   reads what it would on a host where the reference takes
   [reference_nominal_s]: the host's drift cancels, a change in the
   program does not.

   The work is half arithmetic (xorshift draws, a logarithm, scattered
   reads and writes over 1 MiB) and half allocation (short lists of
   boxed floats, so minor collections, which stop both domains). Over
   156 figure-paper sweeps, the log of a sweep's time moved with the log
   of this mix's time at a slope of 0.99; with the arithmetic alone,
   0.77, and with the allocation alone, 0.92. *)
let reference_nominal_s = 0.15

let arithmetic_loop n =
  let size = 131072 in
  let a = Array.make size 0.0 in
  let x = ref 0x2545F4914F6CDD1D and acc = ref 0.0 in
  for _ = 1 to n do
    let v = !x in
    let v = v lxor (v lsl 13) in
    let v = v lxor (v lsr 7) in
    let v = v lxor (v lsl 17) in
    x := v;
    let u = float_of_int (v land 0xFFFFFF) /. 16777216.0 in
    let j = (v lsr 7) land (size - 1) in
    a.(j) <- a.(j) -. log (u +. 1e-9);
    acc := !acc +. a.((j * 7) land (size - 1))
  done;
  !acc

let allocation_loop n =
  let acc = ref 0.0 in
  for i = 1 to n do
    let l = List.init 16 (fun k -> float_of_int (k + i)) in
    acc := !acc +. List.fold_left ( +. ) 0.0 l
  done;
  !acc

let reference_work () = arithmetic_loop 4_000_000 +. allocation_loop 400_000

(* Keeps the loops' results live, so no compiler may drop them. *)
let reference_sink = Atomic.make 0.0

let reference ~domains =
  let t0 = now () in
  let others = List.init (domains - 1) (fun _ -> Domain.spawn reference_work) in
  let own = reference_work () in
  let sum = List.fold_left (fun acc d -> acc +. Domain.join d) own others in
  let t = now () -. t0 in
  Atomic.set reference_sink sum;
  t

(* Steal and total CPU ticks since boot, summed over all CPUs
   (/proc/stat); (0, 0) when unreadable. Steal is time the hypervisor
   ran other guests while one of ours was ready to run. *)
let cpu_ticks () =
  try
    match In_channel.with_open_text "/proc/stat" In_channel.input_line with
    | Some line -> (
        match List.filter (( <> ) "") (String.split_on_char ' ' line) with
        | "cpu" :: fields ->
            let v = List.map int_of_string (List.filteri (fun i _ -> i < 8) fields) in
            (List.nth v 7, List.fold_left ( + ) 0 v)
        | _ -> (0, 0))
    | None -> (0, 0)
  with Sys_error _ | Failure _ | Invalid_argument _ -> (0, 0)

(* [f ()] with the share of its wall time that was stolen. *)
let with_steal f =
  let s0, t0 = cpu_ticks () in
  let r = f () in
  let s1, t1 = cpu_ticks () in
  (r, if t1 > t0 then float_of_int (s1 - s0) /. float_of_int (t1 - t0) else 0.0)

(* Of values measured in windows of a run, each paired with its
   window's steal share, the values of the windows with under 1% steal,
   or of the (larger) half with the least steal when that is more. The
   host steals in bursts of a second or two; a window it hit measures
   the host, not the program. *)
let least_stolen xs =
  List.stable_sort (fun (_, a) (_, b) -> Float.compare a b) xs
  |> List.filteri (fun i (_, steal) -> i < (List.length xs + 1) / 2 || steal < 0.01)
  |> List.map fst

(* VmHWM (peak resident set) of a process, in MiB; 0 when unreadable. *)
let peak_rss_mb pid =
  let path =
    if pid = 0 then "/proc/self/status"
    else Printf.sprintf "/proc/%d/status" pid
  in
  match open_in path with
  | exception Sys_error _ -> 0.0
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec scan () =
            match input_line ic with
            | exception End_of_file -> 0.0
            | line when String.starts_with ~prefix:"VmHWM:" line ->
                Scanf.sscanf
                  (String.sub line 6 (String.length line - 6))
                  " %d kB"
                  (fun kb -> float_of_int kb /. 1024.0)
            | _ -> scan ()
          in
          scan ())

(* Output checks: every check counts as attempted, a failing one as
   failed, with its message kept for the log. *)
type checks = { mutable attempted : int; mutable failed : int; mutable notes : string list }

let checks () = { attempted = 0; failed = 0; notes = [] }

let check c ok fmt =
  c.attempted <- c.attempted + 1;
  if ok then Printf.ikfprintf ignore () fmt
  else
    Printf.ksprintf
      (fun msg ->
        c.failed <- c.failed + 1;
        if List.length c.notes < 20 then c.notes <- msg :: c.notes)
      fmt

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when c < ' ' || c > '~' -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_float x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else "null"

let emit ~workload ~(checks : checks) ~info ~metrics =
  let obj kvs =
    "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) kvs) ^ "}"
  in
  print_endline
    (obj
       [
         ("workload", json_string workload);
         ("attempted", string_of_int checks.attempted);
         ("failed", string_of_int checks.failed);
         ("notes", "[" ^ String.concat ", " (List.rev_map json_string checks.notes) ^ "]");
         ("info", obj (List.map (fun (k, v) -> (k, json_string v)) info));
         ("metrics", obj (List.map (fun (k, v) -> (k, json_float v)) metrics));
       ])
