(* The text decoder of Serve.Protocol as it stood before it became a
   single pass over the payload — token list, per-key substrings and an
   association list — frozen verbatim with its schema and validation,
   only the encoders and the binary decoder left out, as the reference
   for the differential property in test_serve.ml.
   Decoded values are built as [Serve.Protocol] values so the two
   decoders can be compared directly. Do not "fix" this file: its whole
   point is to stay what the decoder was (the quadratic duplicate check
   included). *)

open Serve.Protocol

type kind = F64 | I32 of int * int | I64 | Kleft | Flag | Text

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

exception Refused of string

let refuse fmt = Printf.ksprintf (fun msg -> raise (Refused msg)) fmt

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
  free : bool;
}

type 'm codec = {
  what : string;
  shapes : shape array;
  of_values : int -> value list -> ('m, string) result;
}

let codec what rows of_values =
  let shape (keyword, fields) =
    let free = List.exists (fun (_, k) -> k = Text) fields in
    { keyword; fields; free }
  in
  { what; shapes = Array.of_list (List.map shape rows); of_values }

let requests = codec "request" request_rows request_of_values
let responses = codec "response" response_rows response_of_values

let decode codec tag read =
  let rec fields = function
    | [] -> []
    | f :: rest ->
        let v = check_range f (read f) in
        v :: fields rest
  in
  match fields codec.shapes.(tag - 1).fields with
  | values -> codec.of_values tag values
  | exception Refused msg -> Error msg

let parse (name, kind) text =
  let bad what = refuse "bad %s %S for %S" what text name in
  match kind with
  | Text -> S text
  | F64 -> (
      match float_of_string_opt text with Some f -> F f | None -> bad "float")
  | Kleft when text = "-" -> K None
  | Kleft | Flag | I32 _ | I64 -> (
      match (kind, int_of_string_opt text) with
      | _, None -> bad "int"
      | Kleft, Some k -> K (Some k)
      | Flag, Some ((0 | 1) as b) -> B (b = 1)
      | Flag, Some _ -> refuse "%s must be 0 or 1" name
      | _, Some i -> I i)

let fields_of tokens =
  let rec go acc = function
    | [] -> Ok acc
    | tok :: rest -> (
        match String.index_opt tok '=' with
        | None -> Error (Printf.sprintf "malformed field %S" tok)
        | Some i ->
            let k = String.sub tok 0 i in
            let v = String.sub tok (i + 1) (String.length tok - i - 1) in
            if List.mem_assoc k acc then
              Error (Printf.sprintf "duplicate field %S" k)
            else go ((k, v) :: acc) rest)
  in
  go [] tokens

let free_text text keyword =
  let n = String.length text in
  let rec lead i =
    if i < n && String.contains " \012\n\r\t" text.[i] then lead (i + 1) else i
  in
  let i = lead 0 + String.length keyword in
  if i < n && text.[i] = ' ' then String.sub text (i + 1) (n - i - 1) else ""

let of_string codec text =
  match String.split_on_char ' ' (String.trim text) with
  | [] | [ "" ] -> Error ("empty " ^ codec.what)
  | keyword :: tokens -> (
      match
        Array.find_index (fun s -> String.equal s.keyword keyword) codec.shapes
      with
      | None -> Error (Printf.sprintf "unknown %s %S" codec.what keyword)
      | Some i -> (
          let shape = codec.shapes.(i) in
          if shape.free then
            decode codec (i + 1) (fun _ -> S (free_text text keyword))
          else if shape.fields = [] && tokens <> [] then
            Error (Printf.sprintf "%S takes no fields" keyword)
          else
            let* fields = fields_of tokens in
            decode codec (i + 1) (fun ((name, _) as field) ->
                match List.assoc_opt name fields with
                | None -> refuse "missing field %S" name
                | Some v -> parse field v)))

let request_of_string = of_string requests
let response_of_string = of_string responses
