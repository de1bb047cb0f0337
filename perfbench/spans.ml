(* In-memory span recorder for the traced benchmark runs.

   Spans are recorded by the benchmark around its own calls into each
   layer's public functions: name, start, end, parent span and request
   id. Each domain appends to its own buffer, so pool tasks record
   without contending; the buffers are read once, when the run ends.
   With [enabled] false, [span] is a plain call. *)

type t = {
  name : string;
  id : int;
  parent : int;  (** 0 = top level *)
  req : int;  (** request id shared by one serve request's spans; 0 = none *)
  start : float;
  stop : float;
}

let enabled = ref false
let now = Unix.gettimeofday
let next_id = Atomic.make 1
let lock = Mutex.create ()
let buffers : t list ref list ref = ref []

let buffer_key =
  Domain.DLS.new_key (fun () ->
      let b = ref [] in
      Mutex.protect lock (fun () -> buffers := b :: !buffers);
      b)

let stack_key = Domain.DLS.new_key (fun () -> ref [])

let record ?(req = 0) name ~start ~stop =
  if !enabled then begin
    let parent = match !(Domain.DLS.get stack_key) with p :: _ -> p | [] -> 0 in
    let id = Atomic.fetch_and_add next_id 1 in
    let b = Domain.DLS.get buffer_key in
    b := { name; id; parent; req; start; stop } :: !b
  end

let span ?(req = 0) name f =
  if not !enabled then f ()
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let stack = Domain.DLS.get stack_key in
    let parent = match !stack with p :: _ -> p | [] -> 0 in
    stack := id :: !stack;
    let start = now () in
    Fun.protect
      ~finally:(fun () ->
        let stop = now () in
        stack := List.tl !stack;
        let b = Domain.DLS.get buffer_key in
        b := { name; id; parent; req; start; stop } :: !b)
      f
  end

let all () =
  Mutex.protect lock (fun () -> List.concat_map (fun b -> !b) !buffers)

let named spans name = List.filter (fun s -> String.equal s.name name) spans
let duration s = s.stop -. s.start
let total spans name = List.fold_left (fun a s -> a +. duration s) 0.0 (named spans name)
let count spans name = List.length (named spans name)

let mean_us spans name =
  match count spans name with
  | 0 -> 0.0
  | n -> total spans name *. 1e6 /. float_of_int n

(* Length of [lo, hi] that no span covers: the window minus the union
   of the span intervals clipped to it. *)
let uncovered spans (lo, hi) =
  let iv =
    List.filter_map
      (fun s ->
        let a = Float.max lo s.start and b = Float.min hi s.stop in
        if b > a then Some (a, b) else None)
      spans
    |> List.sort compare
  in
  let covered, _ =
    List.fold_left
      (fun (acc, reach) (a, b) ->
        if b <= reach then (acc, reach)
        else (acc +. (b -. Float.max a reach), b))
      (0.0, lo) iv
  in
  Float.max 0.0 (hi -. lo -. covered)

(* Share of the windows' total length that no span covers. *)
let uncovered_frac spans windows =
  let len = List.fold_left (fun a (lo, hi) -> a +. Float.max 0.0 (hi -. lo)) 0.0 windows in
  if len <= 0.0 then 0.0
  else List.fold_left (fun a w -> a +. uncovered spans w) 0.0 windows /. len

let write_json path spans =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "[\n";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s{\"name\":%S,\"id\":%d,\"parent\":%d,\"req\":%d,\"start\":%.9f,\"end\":%.9f}\n"
            (if i = 0 then "" else ",")
            s.name s.id s.parent s.req s.start s.stop)
        (List.sort (fun a b -> compare a.start b.start) spans);
      output_string oc "]\n")
