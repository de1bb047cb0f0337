type query = {
  params : Fault.Params.t;
  horizon : float;
  quantum : float;
  tleft : float;
  kleft : int option;
  recovering : bool;
}

type platform = {
  plat_params : Fault.Params.t;
  plat_horizon : float;
  plat_quantum : float;
}

type session_query = {
  sid : int;
  sq_tleft : float;
  sq_kleft : int option;
  sq_recovering : bool;
}

type request =
  | Ping
  | Stats
  | Query of query
  | Session_open of platform
  | Session_query of session_query
  | Session_close of int

type answer = { next : float; k : int; work : float }

type response =
  | Answer of answer
  | Stats_reply of Experiments.Strategy.Cache.stats
  | Pong
  | Overloaded
  | Timeout
  | Failed of string
  | Session of int

(* The schema: one row per message — keyword, tag byte (the row's index
   plus one) and ordered typed fields. All four codecs interpret these
   rows, so the text and binary spellings cannot drift apart. *)

type kind =
  | F64  (** float64 bit pattern; [%.17g] in text *)
  | I32 of int * int  (** int32, values restricted to [\[lo, hi\]] *)
  | I64  (** int64 holding any OCaml [int] *)
  | Kleft  (** int32 in [\[0, 2^31-1\]], [None] spelled [-1] / ["-"] *)
  | Flag  (** one byte; [0|1] in text *)
  | Text  (** free text to the end of the payload; a last field only *)

let int32_max = Int32.(to_int max_int)
let int32 = I32 (Int32.(to_int min_int), int32_max)
let sid = I32 (1, int32_max)

let all kind names = List.map (fun name -> (name, kind)) names
let platform_fields = all F64 [ "lambda"; "c"; "r"; "d"; "horizon"; "quantum" ]

let replan_fields = [ ("tleft", F64); ("kleft", Kleft); ("recovering", Flag) ]

let request_rows =
  [
    ("ping", []);
    ("stats", []);
    ("query", platform_fields @ replan_fields);
    ("session-open", platform_fields);
    ("session-query", ("sid", sid) :: replan_fields);
    ("session-close", [ ("sid", sid) ]);
  ]

let response_rows =
  [
    ("pong", []);
    ("overloaded", []);
    ("timeout", []);
    ("error", [ ("message", Text) ]);
    ("answer", [ ("next", F64); ("k", int32); ("work", F64) ]);
    ("stats", all I64 [ "builds"; "hits"; "evictions"; "tables"; "bytes" ]);
    ("session", [ ("sid", int32) ]);
  ]

type value = F of float | I of int | K of int option | B of bool | S of string

let ( let* ) = Result.bind

(* The interpreters refuse a field by raising [Refused]; {!decode} and
   {!to_binary} turn it into an [Error] or an [Invalid_argument]. *)
exception Refused of string

let refuse fmt = Printf.ksprintf (fun msg -> raise (Refused msg)) fmt

(* Shared validation behind both decoders, so a message is legal or not
   independently of its spelling. The range rule also guards the binary
   encoder: a value it cannot spell is refused, never aliased. A NaN or
   infinite horizon, quantum or tleft is refused rather than reaching
   the table builder or the quanta clamp. *)

let check_range (name, kind) v =
  match (kind, v) with
  | I32 (lo, hi), I i when i < lo || i > hi -> refuse "bad %s %d" name i
  | Kleft, K (Some k) when k < 0 || k > int32_max -> refuse "bad %s %d" name k
  | _ -> v

let validate_platform ~lambda ~c ~r ~d ~horizon ~quantum =
  match Fault.Params.make ~lambda ~c ~r ~d with
  | exception Invalid_argument msg -> Error msg
  | _ when not (Float.is_finite quantum && quantum > 0.0) ->
      Error "quantum must be finite and > 0"
  | _ when not (Float.is_finite horizon && horizon > 0.0) ->
      Error "horizon must be finite and > 0"
  | plat_params ->
      Ok { plat_params; plat_horizon = horizon; plat_quantum = quantum }

let validate_tleft tleft =
  if Float.is_finite tleft then Ok tleft else Error "tleft must be finite"

(* Messages to (tag, field values) and back, in row order. *)

let platform_values (p : Fault.Params.t) horizon quantum rest =
  F p.lambda :: F p.c :: F p.r :: F p.d :: F horizon :: F quantum :: rest

let request_values = function
  | Ping -> (1, [])
  | Stats -> (2, [])
  | Query q ->
      ( 3,
        platform_values q.params q.horizon q.quantum
          [ F q.tleft; K q.kleft; B q.recovering ] )
  | Session_open p ->
      (4, platform_values p.plat_params p.plat_horizon p.plat_quantum [])
  | Session_query sq ->
      (5, [ I sq.sid; F sq.sq_tleft; K sq.sq_kleft; B sq.sq_recovering ])
  | Session_close sid -> (6, [ I sid ])

let request_of_values tag values =
  match (tag, values) with
  | 1, [] -> Ok Ping
  | 2, [] -> Ok Stats
  | (3 | 4), F lambda :: F c :: F r :: F d :: F horizon :: F quantum :: rest
    -> (
      let* p = validate_platform ~lambda ~c ~r ~d ~horizon ~quantum in
      match (tag, rest) with
      | 3, [ F tleft; K kleft; B recovering ] ->
          let* tleft = validate_tleft tleft in
          let params = p.plat_params in
          Ok (Query { params; horizon; quantum; tleft; kleft; recovering })
      | 4, [] -> Ok (Session_open p)
      | _ -> Error "request fields out of shape")
  | 5, [ I sid; F tleft; K sq_kleft; B sq_recovering ] ->
      let* sq_tleft = validate_tleft tleft in
      Ok (Session_query { sid; sq_tleft; sq_kleft; sq_recovering })
  | 6, [ I sid ] -> Ok (Session_close sid)
  | _ -> Error "request fields out of shape"

let response_values = function
  | Pong -> (1, [])
  | Overloaded -> (2, [])
  | Timeout -> (3, [])
  | Failed msg -> (4, [ S msg ])
  | Answer a -> (5, [ F a.next; I a.k; F a.work ])
  | Stats_reply s ->
      ( 6,
        [
          I s.Experiments.Strategy.Cache.s_builds; I s.s_hits;
          I s.s_evictions; I s.s_resident_tables; I s.s_resident_bytes;
        ] )
  | Session sid -> (7, [ I sid ])

let response_of_values tag values =
  match (tag, values) with
  | 1, [] -> Ok Pong
  | 2, [] -> Ok Overloaded
  | 3, [] -> Ok Timeout
  | 4, [ S msg ] -> Ok (Failed msg)
  | 5, [ F next; I k; F work ] -> Ok (Answer { next; k; work })
  | 6, [ I builds; I hits; I evictions; I tables; I bytes ] ->
      Ok
        (Stats_reply
           {
             Experiments.Strategy.Cache.s_builds = builds;
             s_hits = hits;
             s_evictions = evictions;
             s_resident_tables = tables;
             s_resident_bytes = bytes;
           })
  | 7, [ I sid ] -> Ok (Session sid)
  | _ -> Error "response fields out of shape"

type shape = {
  keyword : string;
  fields : (string * kind) list;
  size : int;  (** binary bytes after the tag, free text excluded *)
  free : bool;  (** the last field is [Text] *)
}

type 'm codec = {
  what : string;
  shapes : shape array;  (** indexed by tag - 1 *)
  values : 'm -> int * value list;
  of_values : int -> value list -> ('m, string) result;
}

let width = function F64 | I64 -> 8 | I32 _ | Kleft -> 4 | Flag -> 1 | Text -> 0

let codec what rows values of_values =
  let shape (keyword, fields) =
    let size = List.fold_left (fun n (_, k) -> n + width k) 0 fields in
    let free = List.exists (fun (_, k) -> k = Text) fields in
    { keyword; fields; size; free }
  in
  { what; shapes = Array.of_list (List.map shape rows); values; of_values }

let requests = codec "request" request_rows request_values request_of_values

let responses =
  codec "response" response_rows response_values response_of_values

(* Read the fields of row [tag] in order — [read] gets each field's
   index and binary offset too — range-check each, and hand the values
   to the codec's validation. *)
let decode codec tag read =
  let rec fields i at = function
    | [] -> []
    | f :: rest ->
        let v = check_range f (read i at f) in
        v :: fields (i + 1) (at + width (snd f)) rest
  in
  match fields 0 1 codec.shapes.(tag - 1).fields with
  | values -> codec.of_values tag values
  | exception Refused msg -> Error msg

(* Text: [keyword name=value ...], floats as [%.17g], a [Text] field
   bare after the keyword. *)

let render = function
  | F x -> Printf.sprintf "%.17g" x
  | I i | K (Some i) -> string_of_int i
  | K None -> "-"
  | B b -> if b then "1" else "0"
  | S s -> s

let to_string codec m =
  let tag, values = codec.values m in
  let shape = codec.shapes.(tag - 1) in
  let b = Buffer.create 128 in
  Buffer.add_string b shape.keyword;
  List.iter2
    (fun (name, kind) v ->
      Buffer.add_char b ' ';
      (match kind with
      | Text -> ()
      | _ ->
          Buffer.add_string b name;
          Buffer.add_char b '=');
      Buffer.add_string b (render v))
    shape.fields values;
  Buffer.contents b

(* The parser reads spans [a, b) of the payload in place; only a float,
   an int that is not a short unsigned decimal, free text or an error
   message is copied out. *)

let is_space c = c = ' ' || c = '\012' || c = '\n' || c = '\r' || c = '\t'

(* The first [c] in [text.[a, b)], or [b]. *)
let index_in text a b c =
  let i = ref a in
  while !i < b && text.[!i] <> c do
    incr i
  done;
  !i

(* [text.[a, b)] is [s]. *)
let span_is text a b s =
  let n = String.length s in
  b - a = n
  &&
  let i = ref 0 in
  while !i < n && text.[a + !i] = s.[!i] do
    incr i
  done;
  !i = n

(* The value of [text.[a, b)] when it is an unsigned decimal of 1 to 15
   digits, which cannot overflow, or -1: [int_of_string_opt] reads every
   other spelling. *)
let decimal text a b =
  let n = ref (if a < b && b - a <= 15 then 0 else -1) and i = ref a in
  while !n >= 0 && !i < b do
    (match text.[!i] with
    | '0' .. '9' as c -> n := (10 * !n) + Char.code c - 48
    | _ -> n := -1);
    incr i
  done;
  !n

let bad what name text a b =
  refuse "bad %s %S for %S" what (String.sub text a (b - a)) name

let parse (name, kind) text a b =
  match kind with
  | Text -> S (String.sub text a (b - a))
  | F64 -> (
      match float_of_string_opt (String.sub text a (b - a)) with
      | Some f -> F f
      | None -> bad "float" name text a b)
  | Kleft when b - a = 1 && text.[a] = '-' -> K None
  | Kleft | Flag | I32 _ | I64 -> (
      let int =
        match decimal text a b with
        | -1 -> int_of_string_opt (String.sub text a (b - a))
        | n -> Some n
      in
      match (kind, int) with
      | _, None -> bad "int" name text a b
      | Kleft, Some k -> K (Some k)
      | Flag, Some ((0 | 1) as b) -> B (b = 1)
      | Flag, Some _ -> refuse "%s must be 0 or 1" name
      | _, Some i -> I i)

(* The row position of the field named [text.[a, b)], or -1. *)
let rec position fields text a b i =
  match fields with
  | [] -> -1
  | (name, _) :: rest ->
      if span_is text a b name then i else position rest text a b (i + 1)

module Keys = Set.Make (String)

let duplicate text a eq =
  Error (Printf.sprintf "duplicate field %S" (String.sub text a (eq - a)))

(* The [key=value] tokens of [text.[a, hi)], split on single spaces.
   Each schema field's value span goes to [spans] at the field's row
   position and each unknown key into the set [unknown], so a repeated
   key, unknown ones included, costs O(N log N) whatever keys a client
   picks. The first malformed or repeated key, left to right, is the
   error. Order is free, every field is mandatory (checked by the
   caller) and unknown keys are ignored: a stricter parse than the
   single producer needs, but the journal outlives the producer. *)
let rec locate_fields shape text a hi spans unknown =
  let b = index_in text a hi ' ' in
  let eq = index_in text a b '=' in
  if eq = b then
    Error (Printf.sprintf "malformed field %S" (String.sub text a (b - a)))
  else
    let field = position shape.fields text a eq 0 in
    if field >= 0 then
      if spans.(2 * field) >= 0 then duplicate text a eq
      else begin
        spans.(2 * field) <- eq + 1;
        spans.((2 * field) + 1) <- b;
        next_field shape text b hi spans unknown
      end
    else
      let key = String.sub text a (eq - a) in
      if Keys.mem key unknown then duplicate text a eq
      else next_field shape text b hi spans (Keys.add key unknown)

and next_field shape text b hi spans unknown =
  if b = hi then Ok () else locate_fields shape text (b + 1) hi spans unknown

(* One left-to-right pass over the payload, trimmed as by
   [String.trim]; the keyword runs up to the first space. *)
let of_string codec text =
  let n = String.length text in
  let lo = ref 0 and hi = ref n in
  while !lo < n && is_space text.[!lo] do
    incr lo
  done;
  while !hi > !lo && is_space text.[!hi - 1] do
    decr hi
  done;
  let lo = !lo and hi = !hi in
  if lo = hi then Error ("empty " ^ codec.what)
  else
    let kend = index_in text lo hi ' ' and tag = ref 0 in
    while
      !tag < Array.length codec.shapes
      && not (span_is text lo kend codec.shapes.(!tag).keyword)
    do
      incr tag
    done;
    if !tag = Array.length codec.shapes then
      Error
        (Printf.sprintf "unknown %s %S" codec.what
           (String.sub text lo (kend - lo)))
    else
      let shape = codec.shapes.(!tag) in
      if shape.free then
        (* Everything after the keyword's one separating space, verbatim
           and untrimmed: the frame already delimits it. *)
        let message =
          if kend < n && text.[kend] = ' ' then
            String.sub text (kend + 1) (n - kend - 1)
          else ""
        in
        decode codec (!tag + 1) (fun _ _ _ -> S message)
      else if kend < hi && shape.fields = [] then
        Error (Printf.sprintf "%S takes no fields" shape.keyword)
      else
        let spans = Array.make (2 * List.length shape.fields) (-1) in
        let* () =
          if kend = hi then Ok ()
          else locate_fields shape text (kend + 1) hi spans Keys.empty
        in
        decode codec (!tag + 1) (fun i _ ((name, _) as field) ->
            if spans.(2 * i) < 0 then refuse "missing field %S" name
            else parse field text spans.(2 * i) spans.((2 * i) + 1))

(* Binary: the tag byte, then each field little-endian at a fixed
   offset — float64 bit patterns, int32/int64 counters, one flag byte —
   and a trailing free-text field raw. *)

let to_binary codec m =
  let tag, values = codec.values m in
  let shape = codec.shapes.(tag - 1) in
  let size n = function S s -> n + String.length s | _ -> n in
  let b = Bytes.create (List.fold_left size (1 + shape.size) values) in
  let put off ((_, kind) as field) v =
    (match (kind, check_range field v) with
    | I64, I i -> Bytes.set_int64_le b off (Int64.of_int i)
    | _, I i -> Bytes.set_int32_le b off (Int32.of_int i)
    | _, F x -> Bytes.set_int64_le b off (Int64.bits_of_float x)
    | _, K k ->
        Bytes.set_int32_le b off (Int32.of_int (Option.value k ~default:(-1)))
    | _, B x -> Bytes.set b off (if x then '\001' else '\000')
    | _, S s -> Bytes.blit_string s 0 b off (String.length s));
    off + width kind
  in
  Bytes.set b 0 (Char.chr tag);
  match List.fold_left2 put 1 shape.fields values with
  | _ -> Bytes.unsafe_to_string b
  | exception Refused msg -> invalid_arg ("Protocol.to_binary: " ^ msg)

let get s at (name, kind) =
  match kind with
  | F64 -> F (Int64.float_of_bits (String.get_int64_le s at))
  | I32 _ -> I (Int32.to_int (String.get_int32_le s at))
  | Kleft ->
      let k = Int32.to_int (String.get_int32_le s at) in
      K (if k = -1 then None else Some k)
  | I64 ->
      let x = String.get_int64_le s at in
      if Int64.(equal (of_int (to_int x)) x) then I (Int64.to_int x)
      else refuse "bad %s %Ld" name x
  | Flag -> (
      match s.[at] with
      | '\000' -> B false
      | '\001' -> B true
      | c -> refuse "bad boolean byte %d" (Char.code c))
  | Text -> S (String.sub s at (String.length s - at))

let of_binary codec s =
  let len = String.length s in
  if len = 0 then Error ("empty " ^ codec.what)
  else
    let tag = Char.code s.[0] in
    if tag < 1 || tag > Array.length codec.shapes then
      Error (Printf.sprintf "unknown %s tag %d" codec.what tag)
    else
      let shape = codec.shapes.(tag - 1) in
      if len <> 1 + shape.size && not (shape.free && len > shape.size) then
        Error
          (Printf.sprintf "%s payload is %d bytes, expected %d" shape.keyword
             len (1 + shape.size))
      else decode codec tag (fun _ at field -> get s at field)

let request_to_string = to_string requests
let request_of_string = of_string requests
let response_to_string = to_string responses
let response_of_string = of_string responses
let request_to_binary = to_binary requests
let request_of_binary = of_binary requests
let response_to_binary = to_binary responses
let response_of_binary = of_binary responses

let render_response = function
  | Pong -> "pong"
  | Overloaded -> "overloaded"
  | Timeout -> "timeout"
  | Failed msg -> "error: " ^ msg
  | Answer a -> Printf.sprintf "next=%g k=%d work=%g" a.next a.k a.work
  | Session sid -> Printf.sprintf "sid=%d" sid
  | Stats_reply s ->
      Printf.sprintf "builds=%d hits=%d evictions=%d tables=%d bytes=%d"
        s.Experiments.Strategy.Cache.s_builds s.s_hits s.s_evictions
        s.s_resident_tables s.s_resident_bytes
