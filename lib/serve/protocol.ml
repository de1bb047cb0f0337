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

let g = Printf.sprintf "%.17g"

let request_to_string = function
  | Ping -> "ping"
  | Stats -> "stats"
  | Query q ->
      Printf.sprintf
        "query lambda=%s c=%s r=%s d=%s horizon=%s quantum=%s tleft=%s \
         kleft=%s recovering=%d"
        (g q.params.Fault.Params.lambda)
        (g q.params.Fault.Params.c) (g q.params.Fault.Params.r)
        (g q.params.Fault.Params.d) (g q.horizon) (g q.quantum) (g q.tleft)
        (match q.kleft with None -> "-" | Some k -> string_of_int k)
        (if q.recovering then 1 else 0)
  | Session_open p ->
      Printf.sprintf
        "session-open lambda=%s c=%s r=%s d=%s horizon=%s quantum=%s"
        (g p.plat_params.Fault.Params.lambda)
        (g p.plat_params.Fault.Params.c)
        (g p.plat_params.Fault.Params.r)
        (g p.plat_params.Fault.Params.d)
        (g p.plat_horizon) (g p.plat_quantum)
  | Session_query sq ->
      Printf.sprintf "session-query sid=%d tleft=%s kleft=%s recovering=%d"
        sq.sid (g sq.sq_tleft)
        (match sq.sq_kleft with None -> "-" | Some k -> string_of_int k)
        (if sq.sq_recovering then 1 else 0)
  | Session_close sid -> Printf.sprintf "session-close sid=%d" sid

(* key=value fields after the leading keyword; order-insensitive,
   duplicates rejected, every field mandatory — a stricter parse than
   the single producer needs, but the journal outlives the producer. *)
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

let float_field fields name =
  match List.assoc_opt name fields with
  | None -> Error (Printf.sprintf "missing field %S" name)
  | Some v -> (
      match float_of_string_opt v with
      | Some f -> Ok f
      | None -> Error (Printf.sprintf "bad float %S for %S" v name))

let int_field fields name =
  match List.assoc_opt name fields with
  | None -> Error (Printf.sprintf "missing field %S" name)
  | Some v -> (
      match int_of_string_opt v with
      | Some i -> Ok i
      | None -> Error (Printf.sprintf "bad int %S for %S" v name))

let ( let* ) = Result.bind

(* Shared validation behind both the text and binary decoders, so a
   query is legal or not independently of its spelling. A NaN or
   infinite horizon, quantum or tleft is refused here rather than
   reaching the table builder or the quanta clamp. *)

let validate_params ~lambda ~c ~r ~d =
  match Fault.Params.make ~lambda ~c ~r ~d with
  | p -> Ok p
  | exception Invalid_argument msg -> Error msg

let validate_platform ~lambda ~c ~r ~d ~horizon ~quantum =
  let* plat_params = validate_params ~lambda ~c ~r ~d in
  if not (Float.is_finite quantum && quantum > 0.0) then
    Error "quantum must be finite and > 0"
  else if not (Float.is_finite horizon && horizon > 0.0) then
    Error "horizon must be finite and > 0"
  else Ok { plat_params; plat_horizon = horizon; plat_quantum = quantum }

let validate_tleft tleft =
  if Float.is_finite tleft then Ok tleft else Error "tleft must be finite"

let query_of_platform p ~tleft ~kleft ~recovering =
  let* tleft = validate_tleft tleft in
  Ok
    {
      params = p.plat_params;
      horizon = p.plat_horizon;
      quantum = p.plat_quantum;
      tleft;
      kleft;
      recovering;
    }

let validate_query ~lambda ~c ~r ~d ~horizon ~quantum ~tleft ~kleft ~recovering
    =
  let* p = validate_platform ~lambda ~c ~r ~d ~horizon ~quantum in
  query_of_platform p ~tleft ~kleft ~recovering

let validate_session_query ~sid ~tleft ~kleft ~recovering =
  if sid < 1 then Error (Printf.sprintf "bad sid %d" sid)
  else
    let* sq_tleft = validate_tleft tleft in
    Ok { sid; sq_tleft; sq_kleft = kleft; sq_recovering = recovering }

let kleft_field fields =
  match List.assoc_opt "kleft" fields with
  | None -> Error "missing field \"kleft\""
  | Some "-" -> Ok None
  | Some v -> (
      match int_of_string_opt v with
      | Some k when k >= 0 -> Ok (Some k)
      | _ -> Error (Printf.sprintf "bad kleft %S" v))

let recovering_field fields =
  let* i = int_field fields "recovering" in
  match i with
  | 0 -> Ok false
  | 1 -> Ok true
  | _ -> Error "recovering must be 0 or 1"

let platform_fields fields =
  let* lambda = float_field fields "lambda" in
  let* c = float_field fields "c" in
  let* r = float_field fields "r" in
  let* d = float_field fields "d" in
  let* horizon = float_field fields "horizon" in
  let* quantum = float_field fields "quantum" in
  validate_platform ~lambda ~c ~r ~d ~horizon ~quantum

let query_of_fields fields =
  let* p = platform_fields fields in
  let* tleft = float_field fields "tleft" in
  let* kleft = kleft_field fields in
  let* recovering = recovering_field fields in
  query_of_platform p ~tleft ~kleft ~recovering

let session_query_of_fields fields =
  let* sid = int_field fields "sid" in
  let* tleft = float_field fields "tleft" in
  let* kleft = kleft_field fields in
  let* recovering = recovering_field fields in
  validate_session_query ~sid ~tleft ~kleft ~recovering

let request_of_string text =
  match String.split_on_char ' ' (String.trim text) with
  | [ "ping" ] -> Ok Ping
  | [ "stats" ] -> Ok Stats
  | "query" :: rest ->
      let* fields = fields_of rest in
      let* q = query_of_fields fields in
      Ok (Query q)
  | "session-open" :: rest ->
      let* fields = fields_of rest in
      let* p = platform_fields fields in
      Ok (Session_open p)
  | "session-query" :: rest ->
      let* fields = fields_of rest in
      let* sq = session_query_of_fields fields in
      Ok (Session_query sq)
  | "session-close" :: rest ->
      let* fields = fields_of rest in
      let* sid = int_field fields "sid" in
      if sid < 1 then Error (Printf.sprintf "bad sid %d" sid)
      else Ok (Session_close sid)
  | keyword :: _ -> Error (Printf.sprintf "unknown request %S" keyword)
  | [] -> Error "empty request"

let response_to_string = function
  | Pong -> "pong"
  | Overloaded -> "overloaded"
  | Timeout -> "timeout"
  | Failed msg -> "error " ^ msg
  | Answer a -> Printf.sprintf "answer next=%s k=%d work=%s" (g a.next) a.k (g a.work)
  | Session sid -> Printf.sprintf "session sid=%d" sid
  | Stats_reply s ->
      Printf.sprintf "stats builds=%d hits=%d evictions=%d tables=%d bytes=%d"
        s.Experiments.Strategy.Cache.s_builds s.s_hits s.s_evictions
        s.s_resident_tables s.s_resident_bytes

let response_of_string text =
  let text = String.trim text in
  match String.split_on_char ' ' text with
  | [ "pong" ] -> Ok Pong
  | [ "overloaded" ] -> Ok Overloaded
  | [ "timeout" ] -> Ok Timeout
  | "error" :: _ ->
      (* the message is free text: everything after the keyword *)
      let msg =
        if String.length text > 6 then String.sub text 6 (String.length text - 6)
        else ""
      in
      Ok (Failed msg)
  | "answer" :: rest ->
      let* fields = fields_of rest in
      let* next = float_field fields "next" in
      let* k = int_field fields "k" in
      let* work = float_field fields "work" in
      Ok (Answer { next; k; work })
  | "session" :: rest ->
      let* fields = fields_of rest in
      let* sid = int_field fields "sid" in
      Ok (Session sid)
  | "stats" :: rest ->
      let* fields = fields_of rest in
      let* s_builds = int_field fields "builds" in
      let* s_hits = int_field fields "hits" in
      let* s_evictions = int_field fields "evictions" in
      let* s_resident_tables = int_field fields "tables" in
      let* s_resident_bytes = int_field fields "bytes" in
      Ok
        (Stats_reply
           {
             Experiments.Strategy.Cache.s_builds;
             s_hits;
             s_evictions;
             s_resident_tables;
             s_resident_bytes;
           })
  | keyword :: _ -> Error (Printf.sprintf "unknown response %S" keyword)
  | [] -> Error "empty response"

(* Binary codec: one tag byte, then a fixed little-endian layout per
   variant — float64 bit patterns, int32 counters, [-1] spelling an
   absent [kleft]. The layout exists for the hot path only: the journal
   and every human surface keep the text spelling, and the server
   re-encodes binary requests to canonical text before journaling. *)

let tag_ping = '\001'
let tag_stats = '\002'
let tag_query = '\003'
let tag_session_open = '\004'
let tag_session_query = '\005'
let tag_session_close = '\006'

let rtag_pong = '\001'
let rtag_overloaded = '\002'
let rtag_timeout = '\003'
let rtag_failed = '\004'
let rtag_answer = '\005'
let rtag_stats = '\006'
let rtag_session = '\007'

let put_float b off v = Bytes.set_int64_le b off (Int64.bits_of_float v)
let get_float s off = Int64.float_of_bits (String.get_int64_le s off)
let put_int32 b off v = Bytes.set_int32_le b off (Int32.of_int v)
let get_int32 s off = Int32.to_int (String.get_int32_le s off)

let put_kleft b off = function
  | None -> put_int32 b off (-1)
  | Some k -> put_int32 b off k

let get_kleft s off =
  match get_int32 s off with
  | -1 -> Ok None
  | k when k >= 0 -> Ok (Some k)
  | k -> Error (Printf.sprintf "bad kleft %d" k)

let request_to_binary = function
  | Ping -> String.make 1 tag_ping
  | Stats -> String.make 1 tag_stats
  | Query q ->
      let b = Bytes.create 62 in
      Bytes.set b 0 tag_query;
      put_float b 1 q.params.Fault.Params.lambda;
      put_float b 9 q.params.Fault.Params.c;
      put_float b 17 q.params.Fault.Params.r;
      put_float b 25 q.params.Fault.Params.d;
      put_float b 33 q.horizon;
      put_float b 41 q.quantum;
      put_float b 49 q.tleft;
      put_kleft b 57 q.kleft;
      Bytes.set b 61 (if q.recovering then '\001' else '\000');
      Bytes.unsafe_to_string b
  | Session_open p ->
      let b = Bytes.create 49 in
      Bytes.set b 0 tag_session_open;
      put_float b 1 p.plat_params.Fault.Params.lambda;
      put_float b 9 p.plat_params.Fault.Params.c;
      put_float b 17 p.plat_params.Fault.Params.r;
      put_float b 25 p.plat_params.Fault.Params.d;
      put_float b 33 p.plat_horizon;
      put_float b 41 p.plat_quantum;
      Bytes.unsafe_to_string b
  | Session_query sq ->
      let b = Bytes.create 18 in
      Bytes.set b 0 tag_session_query;
      put_int32 b 1 sq.sid;
      put_float b 5 sq.sq_tleft;
      put_kleft b 13 sq.sq_kleft;
      Bytes.set b 17 (if sq.sq_recovering then '\001' else '\000');
      Bytes.unsafe_to_string b
  | Session_close sid ->
      let b = Bytes.create 5 in
      Bytes.set b 0 tag_session_close;
      put_int32 b 1 sid;
      Bytes.unsafe_to_string b

let bool_byte s off =
  match s.[off] with
  | '\000' -> Ok false
  | '\001' -> Ok true
  | c -> Error (Printf.sprintf "bad boolean byte %d" (Char.code c))

let expect_len s n what =
  if String.length s = n then Ok ()
  else
    Error
      (Printf.sprintf "%s payload is %d bytes, expected %d" what
         (String.length s) n)

let request_of_binary s =
  if String.length s = 0 then Error "empty request"
  else
    match s.[0] with
    | c when Char.equal c tag_ping ->
        let* () = expect_len s 1 "ping" in
        Ok Ping
    | c when Char.equal c tag_stats ->
        let* () = expect_len s 1 "stats" in
        Ok Stats
    | c when Char.equal c tag_query ->
        let* () = expect_len s 62 "query" in
        let* kleft = get_kleft s 57 in
        let* recovering = bool_byte s 61 in
        let* q =
          validate_query ~lambda:(get_float s 1) ~c:(get_float s 9)
            ~r:(get_float s 17) ~d:(get_float s 25) ~horizon:(get_float s 33)
            ~quantum:(get_float s 41) ~tleft:(get_float s 49) ~kleft
            ~recovering
        in
        Ok (Query q)
    | c when Char.equal c tag_session_open ->
        let* () = expect_len s 49 "session-open" in
        let* p =
          validate_platform ~lambda:(get_float s 1) ~c:(get_float s 9)
            ~r:(get_float s 17) ~d:(get_float s 25) ~horizon:(get_float s 33)
            ~quantum:(get_float s 41)
        in
        Ok (Session_open p)
    | c when Char.equal c tag_session_query ->
        let* () = expect_len s 18 "session-query" in
        let* kleft = get_kleft s 13 in
        let* recovering = bool_byte s 17 in
        let* sq =
          validate_session_query ~sid:(get_int32 s 1) ~tleft:(get_float s 5)
            ~kleft ~recovering
        in
        Ok (Session_query sq)
    | c when Char.equal c tag_session_close ->
        let* () = expect_len s 5 "session-close" in
        let sid = get_int32 s 1 in
        if sid < 1 then Error (Printf.sprintf "bad sid %d" sid)
        else Ok (Session_close sid)
    | c -> Error (Printf.sprintf "unknown request tag %d" (Char.code c))

let response_to_binary = function
  | Pong -> String.make 1 rtag_pong
  | Overloaded -> String.make 1 rtag_overloaded
  | Timeout -> String.make 1 rtag_timeout
  | Failed msg -> String.make 1 rtag_failed ^ msg
  | Answer a ->
      let b = Bytes.create 21 in
      Bytes.set b 0 rtag_answer;
      put_float b 1 a.next;
      put_int32 b 9 a.k;
      put_float b 13 a.work;
      Bytes.unsafe_to_string b
  | Stats_reply s ->
      let b = Bytes.create 41 in
      Bytes.set b 0 rtag_stats;
      Bytes.set_int64_le b 1
        (Int64.of_int s.Experiments.Strategy.Cache.s_builds);
      Bytes.set_int64_le b 9 (Int64.of_int s.s_hits);
      Bytes.set_int64_le b 17 (Int64.of_int s.s_evictions);
      Bytes.set_int64_le b 25 (Int64.of_int s.s_resident_tables);
      Bytes.set_int64_le b 33 (Int64.of_int s.s_resident_bytes);
      Bytes.unsafe_to_string b
  | Session sid ->
      let b = Bytes.create 5 in
      Bytes.set b 0 rtag_session;
      put_int32 b 1 sid;
      Bytes.unsafe_to_string b

let response_of_binary s =
  if String.length s = 0 then Error "empty response"
  else
    match s.[0] with
    | c when Char.equal c rtag_pong ->
        let* () = expect_len s 1 "pong" in
        Ok Pong
    | c when Char.equal c rtag_overloaded ->
        let* () = expect_len s 1 "overloaded" in
        Ok Overloaded
    | c when Char.equal c rtag_timeout ->
        let* () = expect_len s 1 "timeout" in
        Ok Timeout
    | c when Char.equal c rtag_failed ->
        Ok (Failed (String.sub s 1 (String.length s - 1)))
    | c when Char.equal c rtag_answer ->
        let* () = expect_len s 21 "answer" in
        Ok
          (Answer
             { next = get_float s 1; k = get_int32 s 9; work = get_float s 13 })
    | c when Char.equal c rtag_stats ->
        let* () = expect_len s 41 "stats" in
        let int64 off = Int64.to_int (String.get_int64_le s off) in
        Ok
          (Stats_reply
             {
               Experiments.Strategy.Cache.s_builds = int64 1;
               s_hits = int64 9;
               s_evictions = int64 17;
               s_resident_tables = int64 25;
               s_resident_bytes = int64 33;
             })
    | c when Char.equal c rtag_session ->
        let* () = expect_len s 5 "session" in
        Ok (Session (get_int32 s 1))
    | c -> Error (Printf.sprintf "unknown response tag %d" (Char.code c))

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
