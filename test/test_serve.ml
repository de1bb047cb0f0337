(* Tests for the serve daemon's socket-free layers: the wire protocol
   text, the framing over a socketpair, the bounded admission queue, and
   the request handler (answers checked against the DP tables directly,
   timeout on an injected clock, chaos, kleft capping). The end-to-end
   daemon drills — crash recovery, shedding under load, SIGTERM drain —
   live in serve_drill.t. *)

module Protocol = Serve.Protocol
module Wire = Serve.Wire
module Bqueue = Serve.Bqueue
module Handler = Serve.Handler
module Strategy = Experiments.Strategy

let params = Fault.Params.paper ~lambda:0.001 ~c:20.0 ~d:0.0

let query ?(tleft = 500.0) ?kleft ?(recovering = false) () =
  {
    Protocol.params;
    horizon = 500.0;
    quantum = 1.0;
    tleft;
    kleft;
    recovering;
  }

let platform ?(lambda = 0.001) () =
  {
    Protocol.plat_params = Fault.Params.paper ~lambda ~c:20.0 ~d:0.0;
    plat_horizon = 500.0;
    plat_quantum = 1.0;
  }

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* Every request spelling exercised by the round-trip tests, session
   variants included. *)
let all_requests =
  [
    Protocol.Ping;
    Protocol.Stats;
    Protocol.Query (query ());
    Protocol.Query (query ~tleft:120.5 ~kleft:3 ~recovering:true ());
    (* a quantum %g cannot render exactly: %.17g must round-trip it *)
    Protocol.Query { (query ()) with Protocol.quantum = 1.0 /. 3.0 };
    Protocol.Session_open (platform ());
    Protocol.Session_query
      {
        Protocol.sid = 7;
        sq_tleft = 120.5;
        sq_kleft = Some 2;
        sq_recovering = true;
      };
    Protocol.Session_query
      {
        Protocol.sid = 1;
        sq_tleft = 500.0;
        sq_kleft = None;
        sq_recovering = false;
      };
    Protocol.Session_close 7;
  ]

(* protocol text *)

let test_request_round_trip () =
  let requests = all_requests in
  List.iter
    (fun req ->
      let spelled = Protocol.request_to_string req in
      match Protocol.request_of_string spelled with
      | Ok req' when req' = req -> ()
      | Ok _ -> Alcotest.failf "%S parsed back differently" spelled
      | Error e -> Alcotest.failf "%S rejected: %s" spelled e)
    requests

let all_responses =
  [
    Protocol.Pong;
    Protocol.Overloaded;
    Protocol.Timeout;
    Protocol.Answer { Protocol.next = 245.0; k = 2; work = 395.25 };
    Protocol.Answer { Protocol.next = 0.0; k = 0; work = 0.0 };
    Protocol.Stats_reply
      {
        Strategy.Cache.s_builds = 3;
        s_hits = 6;
        s_evictions = 1;
        s_resident_tables = 2;
        s_resident_bytes = 393786;
      };
    Protocol.Failed "bad float \"nope\" for \"lambda\"";
    (* the message is free text: trailing whitespace is part of it *)
    Protocol.Failed "x ";
    Protocol.Failed "x\n";
    Protocol.Session 42;
  ]

let test_response_round_trip () =
  let responses = all_responses in
  List.iter
    (fun resp ->
      let spelled = Protocol.response_to_string resp in
      match Protocol.response_of_string spelled with
      | Ok resp' when resp' = resp -> ()
      | Ok _ -> Alcotest.failf "%S parsed back differently" spelled
      | Error e -> Alcotest.failf "%S rejected: %s" spelled e)
    responses

(* The exact bytes of every spelling above — text, and binary in hex —
   so a codec refactor cannot move the wire format or the journal. *)
let golden_requests =
  [
    ("ping", "01");
    ("stats", "02");
    ( "query lambda=0.001 c=20 r=20 d=0 horizon=500 quantum=1 tleft=500 \
       kleft=- recovering=0",
      "03fca9f1d24d62503f0000000000003440000000000000344000000000000000\
       000000000000407f40000000000000f03f0000000000407f40ffffffff00" );
    ( "query lambda=0.001 c=20 r=20 d=0 horizon=500 quantum=1 tleft=120.5 \
       kleft=3 recovering=1",
      "03fca9f1d24d62503f0000000000003440000000000000344000000000000000\
       000000000000407f40000000000000f03f0000000000205e400300000001" );
    ( "query lambda=0.001 c=20 r=20 d=0 horizon=500 \
       quantum=0.33333333333333331 tleft=500 kleft=- recovering=0",
      "03fca9f1d24d62503f0000000000003440000000000000344000000000000000\
       000000000000407f40555555555555d53f0000000000407f40ffffffff00" );
    ( "session-open lambda=0.001 c=20 r=20 d=0 horizon=500 quantum=1",
      "04fca9f1d24d62503f0000000000003440000000000000344000000000000000\
       000000000000407f40000000000000f03f" );
    ( "session-query sid=7 tleft=120.5 kleft=2 recovering=1",
      "05070000000000000000205e400200000001" );
    ( "session-query sid=1 tleft=500 kleft=- recovering=0",
      "05010000000000000000407f40ffffffff00" );
    ("session-close sid=7", "0607000000");
  ]

let golden_responses =
  [
    ("pong", "01");
    ("overloaded", "02");
    ("timeout", "03");
    ( "answer next=245 k=2 work=395.25",
      "050000000000a06e40020000000000000000b47840" );
    ("answer next=0 k=0 work=0", "050000000000000000000000000000000000000000");
    ( "stats builds=3 hits=6 evictions=1 tables=2 bytes=393786",
      "0603000000000000000600000000000000010000000000000002000000000000\
       003a02060000000000" );
    ( "error bad float \"nope\" for \"lambda\"",
      "0462616420666c6f617420226e6f70652220666f7220226c616d62646122" );
    ("error x ", "047820");
    ("error x\n", "04780a");
    ("session sid=42", "072a000000");
  ]

let hex s =
  String.concat ""
    (List.map
       (fun c -> Printf.sprintf "%02x" (Char.code c))
       (List.of_seq (String.to_seq s)))

let test_golden_spellings () =
  let check what to_text to_binary values golden =
    Alcotest.(check int) (what ^ " table covers every value")
      (List.length values) (List.length golden);
    List.iter2
      (fun v (text, binary) ->
        Alcotest.(check string) (what ^ " text") text (to_text v);
        Alcotest.(check string) (what ^ " binary") binary (hex (to_binary v)))
      values golden
  in
  check "request" Protocol.request_to_string Protocol.request_to_binary
    all_requests golden_requests;
  check "response" Protocol.response_to_string Protocol.response_to_binary
    all_responses golden_responses

let test_malformed_requests () =
  let rejected payload =
    match Protocol.request_of_string payload with
    | Ok _ -> Alcotest.failf "%S accepted" payload
    | Error _ -> ()
  in
  rejected "";
  rejected "bogus";
  rejected "query lambda=0.001" (* missing fields *);
  rejected
    "query lambda=x c=20 r=20 d=0 horizon=500 quantum=1 tleft=500 kleft=- \
     recovering=0" (* bad float *);
  rejected
    "query lambda=0.001 c=20 r=20 d=0 horizon=500 quantum=1 tleft=500 \
     kleft=- recovering=0 c=21" (* duplicate field *);
  rejected
    "query lambda=-1 c=20 r=20 d=0 horizon=500 quantum=1 tleft=500 kleft=- \
     recovering=0" (* Params.make must reject, as an Error not a raise *);
  rejected "ping a=b" (* a message without fields takes none *);
  rejected "stats x";
  rejected "session-close" (* missing sid *)

(* protocol binary *)

let test_binary_request_round_trip () =
  List.iter
    (fun req ->
      let packed = Protocol.request_to_binary req in
      match Protocol.request_of_binary packed with
      | Ok req' when req' = req -> ()
      | Ok _ ->
          Alcotest.failf "%S decoded back differently" (String.escaped packed)
      | Error e ->
          Alcotest.failf "%S rejected: %s" (String.escaped packed) e)
    all_requests

let test_binary_response_round_trip () =
  List.iter
    (fun resp ->
      let packed = Protocol.response_to_binary resp in
      match Protocol.response_of_binary packed with
      | Ok resp' when resp' = resp -> ()
      | Ok _ ->
          Alcotest.failf "%S decoded back differently" (String.escaped packed)
      | Error e ->
          Alcotest.failf "%S rejected: %s" (String.escaped packed) e)
    all_responses

let test_malformed_binary_requests () =
  let rejected payload =
    match Protocol.request_of_binary payload with
    | Ok _ -> Alcotest.failf "binary %S accepted" (String.escaped payload)
    | Error _ -> ()
  in
  rejected "";
  rejected "\xff" (* unknown tag *);
  let good = Protocol.request_to_binary (Protocol.Query (query ())) in
  rejected (String.sub good 0 (String.length good - 1)) (* truncated *);
  rejected (good ^ "\x00") (* trailing bytes *);
  (* Both spellings run the same validation: a negative lambda is
     rejected by decode, not raised out of Params.make. *)
  let bad = Bytes.of_string good in
  Bytes.set_int64_le bad 1 (Int64.bits_of_float (-1.0));
  rejected (Bytes.to_string bad);
  let sid0 =
    Bytes.of_string (Protocol.request_to_binary (Protocol.Session_close 1))
  in
  Bytes.set_int32_le sid0 1 0l;
  rejected (Bytes.to_string sid0) (* sid must be >= 1 *);
  (* A NaN or infinite horizon, quantum or tleft is refused by both
     decoders alike; it would otherwise size a DP table to nothing. *)
  List.iter
    (fun x ->
      List.iter
        (fun req ->
          rejected (Protocol.request_to_binary req);
          let text = Protocol.request_to_string req in
          match Protocol.request_of_string text with
          | Ok _ -> Alcotest.failf "text %S accepted" text
          | Error _ -> ())
        [
          Protocol.Query { (query ()) with Protocol.horizon = x };
          Protocol.Query { (query ()) with Protocol.quantum = x };
          Protocol.Query (query ~tleft:x ());
          Protocol.Session_open { (platform ()) with Protocol.plat_horizon = x };
          Protocol.Session_open { (platform ()) with Protocol.plat_quantum = x };
          Protocol.Session_query
            {
              Protocol.sid = 1;
              sq_tleft = x;
              sq_kleft = None;
              sq_recovering = false;
            };
        ])
    [ Float.nan; Float.infinity; Float.neg_infinity ]

(* Random messages of every variant. Ints span the whole [int] range
   (most values fit the binary spelling, some do not), [kleft] includes
   negatives, floats include NaN and infinities, and an error message is
   any string at all. *)
let gen_int =
  QCheck.Gen.(frequency [ (3, int_range 0 50); (1, small_signed_int); (1, int) ])

let gen_float =
  QCheck.Gen.(
    frequency
      [ (3, float_range 0.0 1000.0); (1, float); (1, oneofl [ 0.0; -0.0 ]) ])

let gen_params =
  QCheck.Gen.(
    map
      (fun (lambda, c, r, d) -> Fault.Params.make ~lambda ~c ~r ~d)
      (quad (float_range 1e-6 0.1) (float_range 0.0 100.0)
         (float_range 0.0 100.0) (float_range 0.0 10.0)))

let gen_request =
  QCheck.Gen.(
    let platform =
      map3
        (fun plat_params plat_horizon plat_quantum ->
          { Protocol.plat_params; plat_horizon; plat_quantum })
        gen_params gen_float gen_float
    in
    let sq =
      map4
        (fun sid sq_tleft sq_kleft sq_recovering ->
          { Protocol.sid; sq_tleft; sq_kleft; sq_recovering })
        gen_int gen_float (opt gen_int) bool
    in
    oneof
      [
        oneofl [ Protocol.Ping; Protocol.Stats ];
        map4
          (fun p tleft kleft recovering ->
            Protocol.Query
              {
                Protocol.params = p.Protocol.plat_params;
                horizon = p.Protocol.plat_horizon;
                quantum = p.Protocol.plat_quantum;
                tleft;
                kleft;
                recovering;
              })
          platform gen_float (opt gen_int) bool;
        map (fun p -> Protocol.Session_open p) platform;
        map (fun sq -> Protocol.Session_query sq) sq;
        map (fun sid -> Protocol.Session_close sid) gen_int;
      ])

let gen_response =
  QCheck.Gen.(
    oneof
      [
        oneofl [ Protocol.Pong; Protocol.Overloaded; Protocol.Timeout ];
        map (fun msg -> Protocol.Failed msg) string;
        map3
          (fun next k work -> Protocol.Answer { Protocol.next; k; work })
          gen_float gen_int gen_float;
        map
          (fun (b, h, e, (t, n)) ->
            Protocol.Stats_reply
              {
                Strategy.Cache.s_builds = b;
                s_hits = h;
                s_evictions = e;
                s_resident_tables = t;
                s_resident_bytes = n;
              })
          (quad gen_int gen_int gen_int (pair gen_int gen_int));
        map (fun sid -> Protocol.Session sid) gen_int;
      ])

(* Both spellings decode to the same value, or both refuse (an encoder
   that cannot spell a value refuses it with [Invalid_argument]); so the
   server can journal any decoded query as canonical text and replay it
   bit-identically. [compare], not [=]: NaN survives in replies. *)
let spellings_agree ~to_text ~of_text ~to_binary ~of_binary v =
  let via encode decode =
    match encode v with
    | s -> decode s
    | exception Invalid_argument msg -> Error msg
  in
  match (via to_binary of_binary, via to_text of_text) with
  | Ok b, Ok t -> compare b t = 0 && compare b v = 0
  | Error _, Error _ -> true
  | _ -> false

let binary_text_spellings_agree =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"binary and text spellings agree" ~count:3000
       (QCheck.make
          QCheck.Gen.(
            oneof
              [
                map (fun r -> `Request r) gen_request;
                map (fun r -> `Response r) gen_response;
              ]))
       (function
         | `Request req ->
             spellings_agree ~to_text:Protocol.request_to_string
               ~of_text:Protocol.request_of_string
               ~to_binary:Protocol.request_to_binary
               ~of_binary:Protocol.request_of_binary req
         | `Response resp ->
             spellings_agree ~to_text:Protocol.response_to_string
               ~of_text:Protocol.response_of_string
               ~to_binary:Protocol.response_to_binary
               ~of_binary:Protocol.response_of_binary resp))

(* Payloads for the decoder properties: random bytes, truncations,
   splices and token-level mutations of valid spellings. *)
let fuzz_payload =
  (* a valid spelling, binary when the value fits it *)
  let spelled to_binary to_text gen =
    QCheck.Gen.map
      (fun (v, binary) ->
        try if binary then to_binary v else to_text v
        with Invalid_argument _ -> to_text v)
      (QCheck.Gen.pair gen QCheck.Gen.bool)
  in
  let spell =
    QCheck.Gen.oneof
      [
        spelled Protocol.request_to_binary Protocol.request_to_string
          gen_request;
        spelled Protocol.response_to_binary Protocol.response_to_string
          gen_response;
      ]
  in
  let cut s i = i mod (String.length s + 1) in
  QCheck.Gen.(
    frequency
      [
        (1, string_size ~gen:char (int_bound 80));
        ( 1,
          map2 (fun s i -> String.sub s 0 (cut s i)) spell small_nat );
        ( 1,
          map4
            (fun a b i j ->
              let j = cut b j in
              String.sub a 0 (cut a i) ^ String.sub b j (String.length b - j))
            spell spell small_nat small_nat );
        ( 2,
          map3
            (fun s i tok ->
              match String.split_on_char ' ' s with
              | [] -> s
              | toks ->
                  let i = i mod List.length toks in
                  String.concat " "
                    (List.mapi (fun j t -> if j = i then tok else t) toks))
            spell small_nat
            (oneofl
               [
                 ""; "-"; "="; "x="; "sid=0"; "kleft=-2"; "k=4294967297";
                 "recovering=2"; "builds=9223372036854775807"; "error";
                 "\x03"; "\x04"; "\x05\xff"; "  ";
               ]) );
        ( 1,
          map3
            (fun s i c ->
              if s = "" then s
              else
                let b = Bytes.of_string s in
                Bytes.set b (i mod Bytes.length b) c;
                Bytes.to_string b)
            spell small_nat char );
      ])

(* Decoding is total: no fuzz payload raises out of any of the four
   decoders — a malformed frame must become an error reply, never a
   dead worker. *)
let decoders_are_total =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"decoders are total" ~count:5000
       (QCheck.make ~print:String.escaped fuzz_payload)
       (fun s ->
         ignore (Protocol.request_of_string s);
         ignore (Protocol.request_of_binary s);
         ignore (Protocol.response_of_string s);
         ignore (Protocol.response_of_binary s);
         true))

(* Text spellings bent the ways a hand-written or hostile client bends
   them: fields reordered, repeated or joined by unknown keys, words
   separated by runs of spaces, the payload padded with whitespace. *)
let bent_text =
  let text =
    QCheck.Gen.oneof
      [
        QCheck.Gen.map Protocol.request_to_string gen_request;
        QCheck.Gen.map Protocol.response_to_string gen_response;
      ]
  in
  let junk =
    QCheck.Gen.oneofl
      [ "junk=1"; "x="; "="; "a=b=c"; "junk=2"; "lambda"; "k=1"; "sid=3"; "-" ]
  in
  let pad =
    QCheck.Gen.(
      string_size
        ~gen:(oneofl [ ' '; '\t'; '\n'; '\r'; '\012' ])
        (int_bound 3))
  in
  let bend (keyword, fields) = function
    | `Reorder seed ->
        let keyed = List.mapi (fun i f -> (Hashtbl.hash (seed, i), f)) fields in
        (keyword, List.map snd (List.sort compare keyed))
    | `Repeat i when fields <> [] ->
        let f = List.nth fields (i mod List.length fields) in
        (keyword, fields @ [ f ])
    | `Junk (i, j) ->
        let i = i mod (List.length fields + 1) in
        let before = List.filteri (fun k _ -> k < i) fields
        and after = List.filteri (fun k _ -> k >= i) fields in
        (keyword, before @ (j :: after))
    | _ -> (keyword, fields)
  in
  QCheck.Gen.(
    map
      (fun (((t, bends), (spaces, lead)), trail) ->
        match String.split_on_char ' ' t with
        | [] -> t
        | keyword :: fields ->
            let keyword, fields = List.fold_left bend (keyword, fields) bends in
            lead ^ String.concat spaces (keyword :: fields) ^ trail)
      (pair
         (pair
            (pair text
               (list_size (int_bound 3)
                  (oneof
                     [
                       map (fun s -> `Reorder s) int;
                       map (fun i -> `Repeat i) small_nat;
                       map2 (fun i j -> `Junk (i, j)) small_nat junk;
                     ])))
            (pair (oneofl [ " "; " "; "  "; "   " ]) pad))
         pad))

(* The single-pass text decoder answers exactly as the frozen one in
   ref_protocol.ml: the same value — floats compared by bit pattern,
   through the binary spelling, which every decoded value fits — or the
   same error message, word for word. *)
let text_decoder_matches_reference =
  let same ~to_binary mine theirs =
    match (mine, theirs) with
    | Ok a, Ok b -> compare a b = 0 && String.equal (to_binary a) (to_binary b)
    | Error e, Error f -> String.equal e f
    | _ -> false
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"text decoder matches the frozen reference"
       ~count:5000
       (QCheck.make ~print:String.escaped
          QCheck.Gen.(frequency [ (1, fuzz_payload); (2, bent_text) ]))
       (fun s ->
         same ~to_binary:Protocol.request_to_binary
           (Protocol.request_of_string s)
           (Ref_protocol.request_of_string s)
         && same ~to_binary:Protocol.response_to_binary
              (Protocol.response_of_string s)
              (Ref_protocol.response_of_string s)))

(* A payload of distinct unknown keys is refused for its first missing
   field, in linear time. Checking each key against every earlier one is
   O(N²): 32,000 keys take 10.5 s that way, stalling the worker and every
   connection batched on it. *)
let refused_in_time keys =
  let payload =
    "query " ^ String.concat " " (List.map (fun k -> k ^ "=1") keys)
  in
  let t0 = Unix.gettimeofday () in
  let result = Protocol.request_of_string payload in
  let elapsed = Unix.gettimeofday () -. t0 in
  (match result with
  | Error msg ->
      Alcotest.(check string) "refused for its first missing field"
        "missing field \"lambda\"" msg
  | Ok _ -> Alcotest.fail "junk-only query accepted");
  if elapsed > 2.0 then
    Alcotest.failf "%d junk keys took %.2f s (bound 2 s)" (List.length keys)
      elapsed

let test_text_decoder_is_linear () =
  refused_in_time (List.init 64_000 (Printf.sprintf "k%d"))

(* [n] distinct 8-byte keys with one [Hashtbl.hash]. The string hash
   mixes each little-endian 4-byte block [w] into its state [h] as
   [g (h lxor f w)], [f] and [g] bijections on 32 bits; from seed 0 the
   first block [w1] reaches [g (f w1)], and the second block is solved so
   that [g (f w1) lxor f w2] is one constant. A key holding a space or
   an [=] is skipped. *)
let colliding_keys n =
  let mask = 0xffff_ffff in
  let mul a b = (a * b) land mask in
  let rotl x r = ((x lsl r) lor (x lsr (32 - r))) land mask in
  let inverse c =
    (* Newton's iteration doubles the correct low bits: 3, 6, ..., 48. *)
    let x = ref c in
    for _ = 1 to 5 do
      x := mul !x ((2 - mul c !x) land mask)
    done;
    !x
  in
  let c1 = 0xcc9e2d51 and c2 = 0x1b873593 in
  let f w = mul (rotl (mul w c1) 15) c2 in
  let f_inv d = mul (rotl (mul d (inverse c2)) 17) (inverse c1) in
  let g h = (mul (rotl h 13) 5 + 0xe6546b64) land mask in
  let block w =
    String.init 4 (fun i -> Char.chr ((w lsr (8 * i)) land 0xff))
  in
  let rec go acc i count =
    if count = n then List.rev acc
    else
      let w1 = ref 0 and r = ref i in
      for byte = 0 to 3 do
        w1 := !w1 lor ((Char.code 'a' + (!r mod 26)) lsl (8 * byte));
        r := !r / 26
      done;
      let key = block !w1 ^ block (f_inv (g (f !w1) lxor 0x5eed)) in
      if String.contains key ' ' || String.contains key '=' then
        go acc (i + 1) count
      else go (key :: acc) (i + 1) (count + 1)
  in
  go [] 0 0

(* The same refusal when every junk key lands in one hash bucket, as a
   hostile client can arrange against a table hashed with a fixed seed:
   a hash-table dedupe is quadratic again there. *)
let test_text_decoder_is_linear_under_collisions () =
  let keys = colliding_keys 64_000 in
  let h = Hashtbl.hash (List.hd keys) in
  if not (List.for_all (fun k -> Hashtbl.hash k = h) keys) then
    Alcotest.fail "keys do not share one Hashtbl.hash";
  Alcotest.(check int)
    "distinct keys" 64_000
    (List.length (List.sort_uniq String.compare keys));
  refused_in_time keys

(* wire framing over a socketpair *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        [ a; b ])
    (fun () -> f a b)

let with_wire_pair ?mode ?max_frame f =
  with_socketpair (fun a b ->
      f (Wire.of_fd ?mode ?max_frame a) (Wire.of_fd ?mode ?max_frame b))

let test_wire_round_trip () =
  List.iter
    (fun mode ->
      with_wire_pair ~mode (fun a b ->
          (* one frame larger than the 8 KiB read buffer *)
          let payloads =
            [ "ping"; "stats"; String.make 512 'x'; String.make 20_000 'y'; "" ]
          in
          List.iter (fun p -> Wire.send a p) payloads;
          List.iter
            (fun p ->
              match Wire.recv b with
              | Ok got -> Alcotest.(check string) "payload" p got
              | Error e ->
                  Alcotest.failf "recv failed: %s" (Wire.error_message e))
            payloads))
    [ Wire.Text; Wire.Binary ]

let test_wire_closed_and_torn () =
  List.iter
    (fun mode ->
      with_wire_pair ~mode (fun a b ->
          Unix.close (Wire.fd a);
          match Wire.recv b with
          | Error Wire.Closed -> ()
          | Error (Wire.Torn why) ->
              Alcotest.failf "EOF diagnosed as torn: %s" why
          | Ok p -> Alcotest.failf "read %S from a closed peer" p))
    [ Wire.Text; Wire.Binary ];
  with_socketpair (fun a b ->
      (* A corrupted checksum must be a torn frame, not a payload. *)
      let frame = Robust.Durable.Framed.frame "ping" in
      let bad = Bytes.of_string frame in
      let last_hex = Bytes.length bad - 2 in
      Bytes.set bad last_hex
        (if Bytes.get bad last_hex = '0' then '1' else '0');
      let n = Unix.write a bad 0 (Bytes.length bad) in
      Alcotest.(check int) "wrote the whole frame" (Bytes.length bad) n;
      match Wire.recv (Wire.of_fd b) with
      | Error (Wire.Torn _) -> ()
      | Error Wire.Closed -> Alcotest.fail "corruption diagnosed as EOF"
      | Ok p -> Alcotest.failf "accepted corrupted frame as %S" p);
  with_socketpair (fun a b ->
      (* Same for a binary frame with a flipped checksum byte. *)
      let payload = "ping" in
      let len = String.length payload in
      let frame = Bytes.create (4 + len + 8) in
      Bytes.set_int32_le frame 0 (Int32.of_int len);
      Bytes.blit_string payload 0 frame 4 len;
      Bytes.set_int64_le frame (4 + len)
        (Int64.lognot (Numerics.Checksum.fnv1a64 payload));
      let n = Unix.write a frame 0 (Bytes.length frame) in
      Alcotest.(check int) "wrote the whole frame" (Bytes.length frame) n;
      match Wire.recv (Wire.of_fd ~mode:Wire.Binary b) with
      | Error (Wire.Torn _) -> ()
      | Error Wire.Closed -> Alcotest.fail "corruption diagnosed as EOF"
      | Ok p -> Alcotest.failf "accepted corrupted frame as %S" p)

(* Damaged text frames, each refused as [Torn] with the message the
   receiver gave when it checked a frame by rebuilding it: the in-place
   check accepts exactly the bytes [Framed.frame] writes. *)
let test_wire_rejects_damaged_text_frames () =
  let payload = "ping" in
  let frame = Robust.Durable.Framed.frame payload in
  let n = String.length frame in
  let hex = String.sub frame (n - 17) 16 in
  let set i c = String.mapi (fun j x -> if j = i then c else x) frame in
  let seven = Robust.Durable.Framed.frame "ping ok" in
  Alcotest.(check bool) "the digest has a letter to upper-case" true
    (String.exists (fun c -> c >= 'a' && c <= 'f') hex);
  List.iter
    (fun (what, bytes, expected) ->
      with_socketpair (fun a b ->
          let written = Unix.write_substring a bytes 0 (String.length bytes) in
          Alcotest.(check int)
            (what ^ ": written") (String.length bytes) written;
          Unix.close a;
          match Wire.recv (Wire.of_fd b) with
          | Error (Wire.Torn why) ->
              Alcotest.(check string) what expected why
          | Error Wire.Closed -> Alcotest.failf "%s: diagnosed as EOF" what
          | Ok p -> Alcotest.failf "%s: accepted as %S" what p))
    [
      ("leading-zero length", "0" ^ seven, "checksum mismatch");
      ( "upper-case digest",
        String.sub frame 0 (n - 17) ^ String.uppercase_ascii hex ^ "\n",
        "checksum mismatch" );
      ("wrong first separator", set 1 '_', "non-digit in length prefix");
      ("wrong second separator", set (n - 18) '_', "checksum mismatch");
      ("wrong terminator", set (n - 1) ' ', "checksum mismatch");
      ( "missing terminator",
        String.sub frame 0 (n - 1),
        "eof inside frame body" );
      ( "15-digit digest",
        String.sub frame 0 (n - 2) ^ "\n" ^ frame,
        "checksum mismatch" );
      ( "15-digit digest at the end",
        String.sub frame 0 (n - 2) ^ "\n",
        "eof inside frame body" );
    ]

let test_wire_max_frame_is_per_connection () =
  (* Send side refuses to emit a frame beyond the connection's bound. *)
  with_wire_pair ~max_frame:16 (fun a _b ->
      match Wire.send a (String.make 17 'x') with
      | () -> Alcotest.fail "oversized send accepted"
      | exception Invalid_argument _ -> ());
  (* Receive side tears the frame, naming both the offending length and
     the negotiated limit. *)
  List.iter
    (fun mode ->
      with_socketpair (fun a b ->
          let sender = Wire.of_fd ~mode a in
          let receiver = Wire.of_fd ~mode ~max_frame:16 b in
          Wire.send sender (String.make 64 'x');
          match Wire.recv receiver with
          | Error (Wire.Torn why) ->
              Alcotest.(check bool) "names the offending length" true
                (contains why "64");
              Alcotest.(check bool) "names the limit" true (contains why "16")
          | Error Wire.Closed -> Alcotest.fail "overrun diagnosed as EOF"
          | Ok p -> Alcotest.failf "accepted %d-byte frame" (String.length p)))
    [ Wire.Text; Wire.Binary ];
  with_socketpair (fun a _b ->
      match Wire.of_fd ~max_frame:0 a with
      | (_ : Wire.conn) -> Alcotest.fail "max_frame 0 accepted"
      | exception Invalid_argument _ -> ())

(* hello negotiation *)

let test_wire_hello_negotiation () =
  with_wire_pair (fun client server ->
      (* client_hello blocks on the ack, so it runs on its own thread
         while the main one plays server. *)
      let client_result = ref (Ok false) in
      let th =
        Thread.create
          (fun () ->
            client_result :=
              Wire.client_hello client ~mode:Wire.Binary
                ~max_frame:(1 lsl 21) ())
          ()
      in
      (match Wire.server_negotiate server with
      | Ok () -> ()
      | Error e ->
          Alcotest.failf "negotiate failed: %s" (Wire.error_message e));
      Thread.join th;
      (match !client_result with
      | Ok true -> ()
      | Ok false -> Alcotest.fail "server answered with a legacy frame"
      | Error e -> Alcotest.failf "hello failed: %s" (Wire.error_message e));
      Alcotest.(check bool) "client switched" true
        (Wire.mode client = Wire.Binary);
      Alcotest.(check bool) "server switched" true
        (Wire.mode server = Wire.Binary);
      Alcotest.(check int) "client granted" (1 lsl 21) (Wire.max_frame client);
      Alcotest.(check int) "server granted" (1 lsl 21) (Wire.max_frame server);
      (* The negotiated link carries binary frames both ways. *)
      Wire.send client "hello";
      (match Wire.recv server with
      | Ok "hello" -> ()
      | _ -> Alcotest.fail "binary frame lost client->server");
      Wire.send server "world";
      match Wire.recv client with
      | Ok "world" -> ()
      | _ -> Alcotest.fail "binary frame lost server->client")

let test_wire_legacy_text_client_skips_hello () =
  with_wire_pair (fun client server ->
      (* No hello: the first frame's digit prefix tells the server to
         keep text defaults and consume nothing. *)
      Wire.send client "ping";
      (match Wire.server_negotiate server with
      | Ok () -> ()
      | Error e ->
          Alcotest.failf "negotiate failed: %s" (Wire.error_message e));
      Alcotest.(check bool) "stays text" true (Wire.mode server = Wire.Text);
      Alcotest.(check int) "keeps the default bound" Wire.default_max_frame
        (Wire.max_frame server);
      Alcotest.(check bool) "frame still buffered" true (Wire.buffered server);
      match Wire.recv server with
      | Ok "ping" -> ()
      | _ -> Alcotest.fail "first frame lost to negotiation")

let test_wire_hello_against_legacy_server () =
  with_wire_pair (fun client server ->
      (* A peer that never negotiates (a shedding accept loop does
         exactly this) answers the hello with an ordinary text frame:
         the client must fall back to text and keep the frame. *)
      let th = Thread.create (fun () -> Wire.send server "overloaded") () in
      (match Wire.client_hello client ~mode:Wire.Binary () with
      | Ok false -> ()
      | Ok true -> Alcotest.fail "no ack was sent, yet negotiation succeeded"
      | Error e -> Alcotest.failf "hello failed: %s" (Wire.error_message e));
      Thread.join th;
      Alcotest.(check bool) "stays text" true (Wire.mode client = Wire.Text);
      match Wire.recv client with
      | Ok "overloaded" -> ()
      | _ -> Alcotest.fail "shed reply lost to the hello")

let test_wire_hello_grant_has_floor () =
  with_wire_pair (fun client server ->
      (* A hostile hello asking for a 1-byte bound: honoring it would
         make every server reply an oversized send — a remotely
         triggered crash. The grant is raised to the floor instead, and
         replies larger than the ask still flow. *)
      let client_result = ref (Ok false) in
      let th =
        Thread.create
          (fun () ->
            client_result :=
              Wire.client_hello client ~mode:Wire.Binary ~max_frame:1 ())
          ()
      in
      (match Wire.server_negotiate server with
      | Ok () -> ()
      | Error e ->
          Alcotest.failf "negotiate failed: %s" (Wire.error_message e));
      Thread.join th;
      (match !client_result with
      | Ok true -> ()
      | Ok false -> Alcotest.fail "server answered with a legacy frame"
      | Error e -> Alcotest.failf "hello failed: %s" (Wire.error_message e));
      Alcotest.(check int) "grant raised to the floor" Wire.min_max_frame
        (Wire.max_frame server);
      Alcotest.(check int) "client adopts the raised grant"
        Wire.min_max_frame (Wire.max_frame client);
      Wire.send server (String.make 64 'x');
      match Wire.recv client with
      | Ok p -> Alcotest.(check int) "reply flows" 64 (String.length p)
      | Error e -> Alcotest.failf "reply lost: %s" (Wire.error_message e))

let test_wire_stalled_read_is_torn () =
  List.iter
    (fun mode ->
      with_socketpair (fun a b ->
          (* A receive timeout on the reading side plus a half-sent
             frame: the stall must surface as a torn frame, not block
             forever or escape as a raw Unix_error. *)
          Unix.setsockopt_float b Unix.SO_RCVTIMEO 0.05;
          let receiver = Wire.of_fd ~mode b in
          let partial =
            match mode with
            | Wire.Text ->
                (* length prefix and part of the payload, no tail *)
                "10 abc"
            | Wire.Binary ->
                let h = Bytes.create 4 in
                Bytes.set_int32_le h 0 10l;
                Bytes.unsafe_to_string h ^ "abc"
          in
          let n = Unix.write_substring a partial 0 (String.length partial) in
          Alcotest.(check int) "partial frame written" (String.length partial)
            n;
          match Wire.recv receiver with
          | Error (Wire.Torn why) ->
              Alcotest.(check bool) "names the timeout" true
                (contains why "timed out")
          | Error Wire.Closed -> Alcotest.fail "stall diagnosed as EOF"
          | Ok p -> Alcotest.failf "read %S from a stalled peer" p))
    [ Wire.Text; Wire.Binary ]

let test_wire_hello_clamps_to_hard_max () =
  with_socketpair (fun a b ->
      (* A raw hello asking for far more than the ceiling: the grant is
         clamped, and the ack carries the clamp. *)
      let hello = Bytes.create 5 in
      Bytes.set hello 0 'B';
      Bytes.set_int32_le hello 1 Int32.max_int;
      let (_ : int) = Unix.write a hello 0 5 in
      let server = Wire.of_fd b in
      (match Wire.server_negotiate server with
      | Ok () -> ()
      | Error e ->
          Alcotest.failf "negotiate failed: %s" (Wire.error_message e));
      Alcotest.(check int) "grant clamped" Wire.hard_max_frame
        (Wire.max_frame server);
      let ack = Bytes.create 5 in
      let n = Unix.read a ack 0 5 in
      Alcotest.(check int) "ack is 5 bytes" 5 n;
      Alcotest.(check char) "ack echoes the mode" 'B' (Bytes.get ack 0);
      Alcotest.(check int32) "ack carries the clamp"
        (Int32.of_int Wire.hard_max_frame)
        (Bytes.get_int32_le ack 1);
      (* The client-side guard refuses the absurd ask before it ever
         reaches a server. *)
      match
        Wire.client_hello server ~mode:Wire.Binary
          ~max_frame:(Wire.hard_max_frame + 1) ()
      with
      | _ -> Alcotest.fail "over-hard max_frame accepted"
      | exception Invalid_argument _ -> ())

(* bounded queue *)

let test_bqueue_bound_and_fifo () =
  let q = Bqueue.create ~capacity:2 in
  Alcotest.(check bool) "push 1" true (Bqueue.try_push q 1);
  Alcotest.(check bool) "push 2" true (Bqueue.try_push q 2);
  Alcotest.(check bool) "full queue refuses" false (Bqueue.try_push q 3);
  Alcotest.(check int) "length" 2 (Bqueue.length q);
  Alcotest.(check (option int)) "fifo" (Some 1) (Bqueue.pop q);
  Alcotest.(check bool) "slot freed" true (Bqueue.try_push q 3);
  Alcotest.(check (option int)) "fifo 2" (Some 2) (Bqueue.pop q);
  Alcotest.(check (option int)) "fifo 3" (Some 3) (Bqueue.pop q)

let test_bqueue_capacity_zero_sheds_all () =
  let q = Bqueue.create ~capacity:0 in
  Alcotest.(check bool) "sheds everything" false (Bqueue.try_push q 1);
  (match Bqueue.create ~capacity:(-1) with
  | (_ : int Bqueue.t) -> Alcotest.fail "negative capacity accepted"
  | exception Invalid_argument _ -> ())

let test_bqueue_close_drains () =
  let q = Bqueue.create ~capacity:4 in
  Alcotest.(check bool) "push before close" true (Bqueue.try_push q 1);
  Bqueue.close q;
  Bqueue.close q (* idempotent *);
  Alcotest.(check bool) "push after close refused" false (Bqueue.try_push q 2);
  Alcotest.(check (option int)) "drains queued item" (Some 1) (Bqueue.pop q);
  Alcotest.(check (option int)) "then signals done" None (Bqueue.pop q)

let test_bqueue_close_wakes_blocked_popper () =
  let q = Bqueue.create ~capacity:1 in
  let got = ref (Some 0) in
  let popper = Thread.create (fun () -> got := Bqueue.pop q) () in
  Thread.delay 0.05;
  Bqueue.close q;
  Thread.join popper;
  Alcotest.(check (option int)) "blocked pop returns None on close" None !got

let test_bqueue_pop_batch () =
  let q = Bqueue.create ~capacity:8 in
  List.iter (fun i -> ignore (Bqueue.try_push q i)) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check (list int)) "takes up to max, fifo" [ 1; 2; 3 ]
    (Bqueue.pop_batch q ~max:3);
  Alcotest.(check (list int)) "rest in order" [ 4; 5 ]
    (Bqueue.pop_batch q ~max:8);
  (match Bqueue.pop_batch q ~max:0 with
  | _ -> Alcotest.fail "max = 0 accepted"
  | exception Invalid_argument _ -> ());
  (* Blocks like pop: a push wakes it. *)
  let got = ref [] in
  let popper = Thread.create (fun () -> got := Bqueue.pop_batch q ~max:4) () in
  Thread.delay 0.05;
  Alcotest.(check bool) "push wakes the popper" true (Bqueue.try_push q 9);
  Thread.join popper;
  Alcotest.(check (list int)) "woken with the pushed item" [ 9 ] !got;
  (* Close semantics: drain what is queued, then []. *)
  ignore (Bqueue.try_push q 10);
  Bqueue.close q;
  Alcotest.(check (list int)) "drains after close" [ 10 ]
    (Bqueue.pop_batch q ~max:4);
  Alcotest.(check (list int)) "then signals done" []
    (Bqueue.pop_batch q ~max:4)

let test_bqueue_close_wakes_blocked_batch_popper () =
  let q = Bqueue.create ~capacity:1 in
  let got = ref [ 0 ] in
  let popper = Thread.create (fun () -> got := Bqueue.pop_batch q ~max:4) () in
  Thread.delay 0.05;
  Bqueue.close q;
  Thread.join popper;
  Alcotest.(check (list int)) "blocked batch pop returns [] on close" [] !got

let test_bqueue_try_drain () =
  let q = Bqueue.create ~capacity:4 in
  Alcotest.(check (list int)) "empty drains nothing" []
    (Bqueue.try_drain q ~max:4);
  List.iter (fun i -> ignore (Bqueue.try_push q i)) [ 1; 2; 3 ];
  Alcotest.(check (list int)) "bounded, fifo" [ 1; 2 ]
    (Bqueue.try_drain q ~max:2);
  Alcotest.(check int) "rest still queued" 1 (Bqueue.length q);
  (match Bqueue.try_drain q ~max:0 with
  | _ -> Alcotest.fail "max = 0 accepted"
  | exception Invalid_argument _ -> ());
  Bqueue.close q;
  Alcotest.(check (list int)) "drains after close" [ 3 ]
    (Bqueue.try_drain q ~max:2);
  Alcotest.(check (list int)) "never blocks once done" []
    (Bqueue.try_drain q ~max:2)

let test_bqueue_evict () =
  let q = Bqueue.create ~capacity:8 in
  Alcotest.(check (list int)) "empty queue evicts nothing" []
    (Bqueue.evict q ~f:(fun _ -> true));
  List.iter (fun i -> ignore (Bqueue.try_push q i)) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check (list int)) "evicted in fifo order" [ 2; 4 ]
    (Bqueue.evict q ~f:(fun x -> x mod 2 = 0));
  Alcotest.(check int) "rest still queued" 3 (Bqueue.length q);
  Alcotest.(check bool) "slots freed" true (Bqueue.try_push q 6);
  Alcotest.(check (list int)) "survivors keep their order" [ 1; 3; 5; 6 ]
    (Bqueue.try_drain q ~max:8)

(* sessions *)

module Session = Serve.Session

let test_session_open_resolve_close () =
  let t = Session.create ~capacity:4 in
  let plat = platform () in
  let sid = Session.open_ t plat in
  Alcotest.(check int) "sids start at 1" 1 sid;
  (match Session.resolve t ~sid ~tleft:120.0 ~recovering:false with
  | Some p when p = plat -> ()
  | Some _ -> Alcotest.fail "resolved to a different platform"
  | None -> Alcotest.fail "open session did not resolve");
  ignore (Session.resolve t ~sid ~tleft:80.0 ~recovering:true);
  Alcotest.(check (option (pair int int)))
    "history counts queries and failures" (Some (2, 1))
    (Session.history t sid);
  Alcotest.(check bool) "close releases" true (Session.close t sid);
  Alcotest.(check bool) "double close refused" false (Session.close t sid);
  Alcotest.(check bool) "closed sid gone" true
    (Session.resolve t ~sid ~tleft:1.0 ~recovering:false = None);
  Alcotest.(check bool) "unknown sid refused" true
    (Session.resolve t ~sid:999 ~tleft:1.0 ~recovering:false = None);
  let st = Session.stats t in
  Alcotest.(check int) "opened" 1 st.Session.st_opened;
  Alcotest.(check int) "resident" 0 st.Session.st_resident

let test_session_lru_eviction () =
  let t = Session.create ~capacity:2 in
  let s1 = Session.open_ t (platform ~lambda:0.001 ()) in
  let s2 = Session.open_ t (platform ~lambda:0.002 ()) in
  (* Touch s1 so s2 is the LRU, then overflow. *)
  ignore (Session.resolve t ~sid:s1 ~tleft:100.0 ~recovering:false);
  let s3 = Session.open_ t (platform ~lambda:0.003 ()) in
  Alcotest.(check bool) "lru evicted" true
    (Session.resolve t ~sid:s2 ~tleft:1.0 ~recovering:false = None);
  Alcotest.(check bool) "recently used survives" true
    (Session.resolve t ~sid:s1 ~tleft:1.0 ~recovering:false <> None);
  Alcotest.(check bool) "new session lives" true
    (Session.resolve t ~sid:s3 ~tleft:1.0 ~recovering:false <> None);
  let st = Session.stats t in
  Alcotest.(check int) "evicted" 1 st.Session.st_evicted;
  Alcotest.(check int) "resident" 2 st.Session.st_resident;
  Alcotest.(check int) "sids stay dense" 3 s3;
  match Session.create ~capacity:0 with
  | (_ : Session.t) -> Alcotest.fail "capacity 0 accepted"
  | exception Invalid_argument _ -> ()

(* segmented journal *)

module Seglog = Serve.Seglog

let with_seglog_temp f =
  let path = Filename.temp_file "fixedlen_seglog" ".log" in
  let rm p = try Sys.remove p with Sys_error _ -> () in
  Fun.protect
    ~finally:(fun () ->
      rm path;
      List.iter
        (fun suffix -> rm (path ^ suffix))
        [ ".tmp"; ".quarantine"; ".quarantine.reason" ];
      let rec rm_segments n =
        let seg = Printf.sprintf "%s.%d" path n in
        if Sys.file_exists seg then begin
          rm seg;
          rm_segments (n + 1)
        end
      in
      rm_segments 1)
    (fun () -> f path)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let open_log ?rotate_bytes path =
  Seglog.open_ ?rotate_bytes ~point:"seglog-test" ~path ~header:"# seglog v1" ()

let test_seglog_rotates_and_recovers () =
  with_seglog_temp (fun path ->
      let payloads = List.init 6 (Printf.sprintf "request %d") in
      let log, r0 = open_log ~rotate_bytes:30 path in
      Alcotest.(check (list string)) "fresh store is empty" [] r0.Seglog.payloads;
      List.iter (Seglog.append log) payloads;
      (* Each ~30-byte frame crosses the bound on its own, so every
         append sealed a one-record segment. *)
      Alcotest.(check int) "sealed per append" 6 (Seglog.sealed log);
      Seglog.close log;
      let log, r = open_log ~rotate_bytes:30 path in
      Seglog.close log;
      Alcotest.(check int) "segments found" 6 r.Seglog.sealed;
      Alcotest.(check (list string)) "oldest-first across segments"
        payloads r.Seglog.payloads;
      Alcotest.(check (list string)) "clean recovery warns nothing" []
        r.Seglog.warnings)

let test_seglog_without_rotation_is_single_file () =
  with_seglog_temp (fun path ->
      let log, _ = open_log path in
      List.iter (Seglog.append log) [ "a"; "b"; "c" ];
      Alcotest.(check int) "never seals" 0 (Seglog.sealed log);
      Seglog.close log;
      Alcotest.(check bool) "no segment file" false
        (Sys.file_exists (path ^ ".1"));
      let log, r = open_log path in
      Seglog.close log;
      Alcotest.(check (list string)) "recovers from the live file"
        [ "a"; "b"; "c" ] r.Seglog.payloads)

let test_seglog_drops_mid_rotation_duplicate () =
  with_seglog_temp (fun path ->
      let log, _ = open_log path in
      List.iter (Seglog.append log) [ "a"; "b" ];
      Seglog.close log;
      (* Simulate a crash after the seal was published but before the
         live file was reset: the newest segment is byte-identical to
         the live file. *)
      Robust.Durable.write_atomic ~path:(path ^ ".1") (read_file path);
      let log, r = open_log path in
      Alcotest.(check (list string)) "no record recovered twice"
        [ "a"; "b" ] r.Seglog.payloads;
      Alcotest.(check int) "the seal counts" 1 r.Seglog.sealed;
      (match r.Seglog.warnings with
      | [ w ] ->
          Alcotest.(check bool) "warning names the rotation crash" true
            (String.length w >= 9 && String.sub w 0 9 = "live file")
      | ws ->
          Alcotest.failf "expected one duplicate warning, got %d"
            (List.length ws));
      (* The journal keeps working: the next append lands in the fresh
         live file, and numbering continues after the seal. *)
      Seglog.append log "c";
      Seglog.close log;
      let log, r = open_log path in
      Seglog.close log;
      Alcotest.(check (list string)) "appends continue after the drop"
        [ "a"; "b"; "c" ] r.Seglog.payloads)

let test_seglog_truncates_torn_live_tail () =
  with_seglog_temp (fun path ->
      let log, _ = open_log path in
      List.iter (Seglog.append log) [ "a"; "b" ];
      Seglog.close log;
      let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
      output_string oc "13 torn rec";
      close_out oc;
      let log, r = open_log path in
      Seglog.close log;
      Alcotest.(check (list string)) "intact prefix kept" [ "a"; "b" ]
        r.Seglog.payloads;
      Alcotest.(check int) "one damage warning" 1
        (List.length r.Seglog.warnings))

let test_seglog_validation () =
  with_seglog_temp (fun path ->
      match open_log ~rotate_bytes:0 path with
      | (_ : Seglog.t * Seglog.recovery) ->
          Alcotest.fail "rotate_bytes = 0 accepted"
      | exception Invalid_argument _ -> ())

(* compaction: merge sealed segments, drop byte-identical duplicates,
   keep the sequence dense and the records recoverable *)

let compact_log path =
  Seglog.compact ~point:"seglog-test" ~path ~header:"# seglog v1" ()

let test_seglog_compact_merges_and_dedups () =
  with_seglog_temp (fun path ->
      let log, _ = open_log ~rotate_bytes:1 path in
      List.iter (Seglog.append log)
        [ "alpha"; "beta"; "alpha"; "gamma"; "beta"; "delta" ];
      Alcotest.(check int) "six sealed segments" 6 (Seglog.sealed log);
      Seglog.close log;
      (match compact_log path with
      | None -> Alcotest.fail "compaction skipped six segments"
      | Some c ->
          Alcotest.(check int) "segments merged" 6 c.Seglog.segments_merged;
          Alcotest.(check int) "records kept" 4 c.Seglog.records_kept;
          Alcotest.(check int) "duplicates dropped" 2 c.Seglog.duplicates_dropped;
          Alcotest.(check (list string)) "clean merge warns nothing" []
            c.Seglog.compact_warnings);
      Alcotest.(check bool) "merged segment published" true
        (Sys.file_exists (path ^ ".1"));
      Alcotest.(check bool) "old segments unlinked" false
        (Sys.file_exists (path ^ ".2"));
      let log, r = open_log ~rotate_bytes:1 path in
      Alcotest.(check (list string)) "first occurrence wins, order kept"
        [ "alpha"; "beta"; "gamma"; "delta" ] r.Seglog.payloads;
      Alcotest.(check int) "one segment after the merge" 1 r.Seglog.sealed;
      Alcotest.(check (list string)) "recovery warns nothing" [] r.Seglog.warnings;
      (* The journal keeps working: numbering stays dense after .1. *)
      Seglog.append log "epsilon";
      Seglog.close log;
      let log, r = open_log path in
      Seglog.close log;
      Alcotest.(check (list string)) "appends continue after compaction"
        [ "alpha"; "beta"; "gamma"; "delta"; "epsilon" ] r.Seglog.payloads)

let test_seglog_compact_idempotent () =
  with_seglog_temp (fun path ->
      (* No journal at all, then a single-segment journal: both are
         already compact. *)
      Alcotest.(check bool) "nothing to compact" true (compact_log path = None);
      let log, _ = open_log ~rotate_bytes:1 path in
      List.iter (Seglog.append log) [ "a"; "b" ];
      Seglog.close log;
      (match compact_log path with
      | Some c ->
          Alcotest.(check int) "unique records all kept" 2 c.Seglog.records_kept;
          Alcotest.(check int) "nothing dropped" 0 c.Seglog.duplicates_dropped
      | None -> Alcotest.fail "two segments not compacted");
      Alcotest.(check bool) "second run is a no-op" true
        (compact_log path = None))

let test_seglog_compact_heals_crash_window () =
  with_seglog_temp (fun path ->
      let log, _ = open_log ~rotate_bytes:1 path in
      List.iter (Seglog.append log) [ "a"; "b"; "c" ];
      Seglog.close log;
      (match compact_log path with
      | Some c -> Alcotest.(check int) "merged" 3 c.Seglog.segments_merged
      | None -> Alcotest.fail "three segments not compacted");
      (* Simulate dying between publish and the last unlink: a stale
         segment whose records all live in the merged one. *)
      Robust.Durable.write_atomic ~path:(path ^ ".2") (read_file (path ^ ".1"));
      (match compact_log path with
      | Some c ->
          Alcotest.(check int) "re-merged" 2 c.Seglog.segments_merged;
          Alcotest.(check int) "kept" 3 c.Seglog.records_kept;
          Alcotest.(check int) "stale copies dropped" 3
            c.Seglog.duplicates_dropped
      | None -> Alcotest.fail "crash leftover not healed");
      Alcotest.(check bool) "leftover unlinked" false
        (Sys.file_exists (path ^ ".2"));
      let log, r = open_log path in
      Seglog.close log;
      Alcotest.(check (list string)) "records intact" [ "a"; "b"; "c" ]
        r.Seglog.payloads)

(* handler *)

let test_handler_ping_and_stats () =
  let cache = Strategy.Cache.create () in
  let h = Handler.create ~cache () in
  (match Handler.handle h Protocol.Ping with
  | Protocol.Pong -> ()
  | _ -> Alcotest.fail "ping did not pong");
  (match Handler.handle h Protocol.Stats with
  | Protocol.Stats_reply st ->
      Alcotest.(check int) "cold cache: no builds" 0
        st.Strategy.Cache.s_builds
  | _ -> Alcotest.fail "stats did not reply with stats");
  (match Handler.handle h (Protocol.Query (query ())) with
  | Protocol.Answer _ -> ()
  | r -> Alcotest.failf "query failed: %s" (Protocol.render_response r));
  match Handler.handle h Protocol.Stats with
  | Protocol.Stats_reply st ->
      Alcotest.(check int) "query built one table" 1
        st.Strategy.Cache.s_builds
  | _ -> Alcotest.fail "stats did not reply with stats"

(* Today's answer to [q], restated from the table serve answered every
   query from before its serve slot: the k-indexed table built at the
   query's own horizon with the suggested kmax, read by the recursion
   Core.Dp.policy replans with. Also says whether a kleft cap bound,
   i.e. gave fewer checkpoints than the uncapped re-plan. *)
let reference q =
  let { Protocol.params; horizon; quantum; tleft; kleft; recovering } = q in
  let dp =
    Core.Dp.build
      ~kmax:(Core.Dp.suggested_kmax ~params ~horizon)
      ~params ~quantum ~horizon ()
  in
  let u = Core.Dp.quantum dp in
  let n = int_of_float (Float.floor ((tleft /. u) +. 1e-9)) in
  let n = if n < 0 then 0 else min n (Core.Dp.horizon_quanta dp) in
  let uncapped = if n = 0 then 0 else Core.Dp.best_k dp ~n ~delta:recovering in
  let k =
    match kleft with
    | Some k when recovering && n > 0 ->
        Core.Dp.arg_best_m dp ~n ~k:(min (max 1 k) (Core.Dp.kmax dp))
    | _ -> uncapped
  in
  let answer =
    if k = 0 then { Protocol.next = 0.0; k = 0; work = 0.0 }
    else
      {
        Protocol.next =
          float_of_int (Core.Dp.first_checkpoint_q dp ~n ~k ~delta:recovering)
          *. u;
        k;
        work = Core.Dp.expected_work_q dp ~n ~k ~delta:recovering;
      }
  in
  (Protocol.Answer answer, k < uncapped)

(* %.17g spells every float exactly, so equal replies are equal bits. *)
let check_answer_against_table h q =
  Alcotest.(check string)
    (Protocol.request_to_string (Protocol.Query q))
    (Protocol.response_to_string (fst (reference q)))
    (Protocol.response_to_string (Handler.handle h (Protocol.Query q)))

let test_handler_answers_match_tables () =
  let cache = Strategy.Cache.create () in
  let h = Handler.create ~cache () in
  check_answer_against_table h (query ()) (* fresh plan, full horizon *);
  check_answer_against_table h (query ~tleft:120.0 ()) (* fresh, mid-run *);
  check_answer_against_table h
    (query ~tleft:120.0 ~recovering:true ()) (* re-plan, unconstrained *);
  check_answer_against_table h
    (query ~tleft:120.0 ~kleft:2 ~recovering:true ()) (* re-plan, capped *);
  check_answer_against_table h
    (query ~tleft:120.0 ~kleft:0 ~recovering:true ())
    (* kleft=0 is clamped to 1: a recovering execution may always place
       one more checkpoint if the table says it pays *);
  check_answer_against_table h (query ~tleft:0.0 ()) (* nothing left *);
  (* One table serves every tleft at this (params, horizon, quantum). *)
  Alcotest.(check int) "one build across all queries" 1
    (Strategy.Cache.builds cache)

(* Differential check of the answers against {!reference_answer}:
   random platforms with R <> C and D > 0 at u in {0.5, 1, 2}, several
   horizons asked in random order on one handler (so a shorter horizon
   reads a slot built for a longer one), tleft in [0, 1.05 h], both
   starts, kleft in {None, 0..11}. The run must include re-plans whose
   cap binds at a horizon below the longest one asked before. *)
let test_answers_match_reference () =
  let binding_below_slot = ref 0 in
  let gen =
    QCheck.Gen.(
      let* lambda = float_range 5e-4 0.03 in
      let* c = float_range 1.0 15.0 in
      let* r = float_range 0.0 15.0 in
      let* d = float_range 0.5 6.0 in
      let* quantum = oneofl [ 0.5; 1.0; 2.0 ] in
      let* horizons = list_size (int_range 2 4) (float_range 20.0 150.0) in
      let* queries =
        list_size (int_range 8 24)
          (quad (int_bound 3) (float_range 0.0 1.05) bool
             (opt ~ratio:0.7 (int_bound 11)))
      in
      return
        ( Fault.Params.make ~lambda ~c ~r:(if r = c then r +. 1.0 else r) ~d,
          quantum,
          Array.of_list horizons,
          queries ))
  in
  let print (params, quantum, horizons, queries) =
    Printf.sprintf "%s u=%g horizons=[%s] %d queries"
      (Fault.Params.to_string params) quantum
      (String.concat "; " (Array.to_list (Array.map string_of_float horizons)))
      (List.length queries)
  in
  let prop (params, quantum, horizons, queries) =
    let h = Handler.create ~cache:(Strategy.Cache.create ()) () in
    let longest = ref 0.0 in
    List.iter
      (fun (i, frac, recovering, kleft) ->
        let horizon = horizons.(i mod Array.length horizons) in
        let q =
          {
            Protocol.params;
            horizon;
            quantum;
            tleft = frac *. horizon;
            kleft;
            recovering;
          }
        in
        longest := Float.max !longest horizon;
        let want, binding = reference q in
        if binding && horizon < !longest then incr binding_below_slot;
        Alcotest.(check string)
          (Protocol.request_to_string (Protocol.Query q))
          (Protocol.response_to_string want)
          (Protocol.response_to_string (Handler.handle h (Protocol.Query q))))
      queries;
    true
  in
  QCheck.Test.check_exn ~rand:(Random.State.make [| 23 |])
    (QCheck.Test.make ~name:"random queries match the k-indexed tables"
       ~count:120
       (QCheck.make ~print gen) prop);
  if !binding_below_slot = 0 then
    Alcotest.fail "no binding kleft cap below a slot's horizon was exercised"

(* One serve slot per (params, quantum): the longest horizon builds the
   k-free table and shorter ones hit it; the first binding kleft cap adds
   the k-indexed table (one build, Dp.bytes); later binding caps at any
   horizon up to the slot's build nothing; the table and byte bounds
   evict whole slots; a warm binding cap stays off the minor heap. *)
let test_serve_slot_builds_and_bytes () =
  let platform lambda = Fault.Params.make ~lambda ~c:5.0 ~r:8.0 ~d:2.0 in
  let a = platform 0.01 and b = platform 0.02 in
  let q ?kleft ?(recovering = false) ?(tleft = 90.0) params horizon =
    Protocol.Query
      { Protocol.params; horizon; quantum = 1.0; tleft; kleft; recovering }
  in
  let capped params horizon = q ~kleft:1 ~recovering:true params horizon in
  let ask h req =
    match Handler.handle h req with
    | Protocol.Answer ans -> ans
    | r -> Alcotest.failf "query failed: %s" (Protocol.render_response r)
  in
  let opt = Core.Optimal.build ~params:a ~quantum:1.0 ~horizon:200.0 () in
  let opt_bytes = Core.Optimal.bytes opt in
  (* The bytes of the k-indexed table a binding cap adds to the slot. *)
  let dp_bytes params =
    let cache = Strategy.Cache.create () in
    ignore (ask (Handler.create ~cache ()) (capped params 200.0));
    match
      Strategy.dp_table cache ~params ~horizon:200.0 ~quantum:1.0
    with
    | Ok dp -> Core.Dp.bytes dp
    | Error e -> Alcotest.fail (Strategy.error_message e)
  in
  Alcotest.(check bool) "premise: kleft = 1 binds at 90 quanta" true
    (Core.Optimal.plan_length opt ~n:90 ~delta:true >= 2);
  let cache = Strategy.Cache.create () in
  let h = Handler.create ~cache () in
  let expect what ~builds ~hits ~bytes =
    let st = Strategy.Cache.stats cache in
    Alcotest.(check (list int)) what [ builds; hits; 1; bytes ]
      [
        st.Strategy.Cache.s_builds;
        st.Strategy.Cache.s_hits;
        st.Strategy.Cache.s_resident_tables;
        st.Strategy.Cache.s_resident_bytes;
      ]
  in
  ignore (ask h (q a 200.0));
  List.iter
    (fun horizon -> ignore (ask h (q a horizon)))
    [ 150.0; 100.0; 50.0 ];
  expect "longest horizon builds once, shorter ones hit" ~builds:1 ~hits:3
    ~bytes:opt_bytes;
  Alcotest.(check int) "a binding cap answers at the cap" 1
    (ask h (capped a 100.0)).Protocol.k;
  expect "the first binding cap adds the k-indexed table" ~builds:2 ~hits:4
    ~bytes:(opt_bytes + dp_bytes a);
  List.iter
    (fun horizon -> ignore (ask h (capped a horizon)))
    [ 200.0; 150.0; 120.0; 100.0 ];
  expect "later binding caps build nothing" ~builds:2 ~hits:8
    ~bytes:(opt_bytes + dp_bytes a);
  (* The table bound evicts the whole slot, both tables. *)
  let cache = Strategy.Cache.create ~max_tables:1 () in
  let h' = Handler.create ~cache () in
  ignore (ask h' (capped a 200.0));
  ignore (ask h' (q b 200.0));
  Alcotest.(check (list int)) "table bound: one whole slot evicted"
    [ 1; 1; opt_bytes ]
    [
      Strategy.Cache.evictions cache;
      Strategy.Cache.resident_tables cache;
      Strategy.Cache.resident_bytes cache;
    ];
  (* The byte bound: the k-indexed table joining b's slot pushes a's
     out, never b's own. *)
  let cache =
    Strategy.Cache.create ~max_bytes:((2 * opt_bytes) + dp_bytes b - 1) ()
  in
  let h' = Handler.create ~cache () in
  ignore (ask h' (q a 200.0));
  ignore (ask h' (q b 200.0));
  Alcotest.(check int) "two k-free slots fit" 0
    (Strategy.Cache.evictions cache);
  ignore (ask h' (capped b 200.0));
  Alcotest.(check (list int)) "byte bound: the older slot evicted whole"
    [ 1; 1; opt_bytes + dp_bytes b ]
    [
      Strategy.Cache.evictions cache;
      Strategy.Cache.resident_tables cache;
      Strategy.Cache.resident_bytes cache;
    ];
  (* A warm binding cap reads the resident k-indexed table. *)
  let req = capped a 100.0 and n = 1000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Handler.handle h req : Protocol.response)
  done;
  let per_query = (Gc.minor_words () -. w0) /. float_of_int n in
  if per_query > 350.0 then
    Alcotest.failf "warm binding cap: %.0f minor words (bound 350)" per_query

let test_handler_timeout_on_injected_clock () =
  let time = ref 0.0 in
  let cache = Strategy.Cache.create () in
  let h =
    Handler.create ~budget:0.05
      ~now:(fun () -> !time)
      ~slow:0.1
      ~sleep:(fun d -> time := !time +. d)
      ~cache ()
  in
  (match Handler.handle h (Protocol.Query (query ())) with
  | Protocol.Timeout -> ()
  | r -> Alcotest.failf "expected timeout, got %s" (Protocol.render_response r));
  (* The budget bounds the request, not the handler: a fast handler on
     the same cache still answers. *)
  let fast = Handler.create ~budget:10.0 ~cache () in
  match Handler.handle fast (Protocol.Query (query ())) with
  | Protocol.Answer _ -> ()
  | r -> Alcotest.failf "retry failed: %s" (Protocol.render_response r)

let test_handler_chaos_is_typed_failure () =
  let cache = Strategy.Cache.create () in
  let chaos = Robust.Chaos.create ~failure_rate:1.0 ~seed:7L () in
  let h = Handler.create ~chaos ~cache () in
  match Handler.handle h (Protocol.Query (query ())) with
  | Protocol.Failed msg ->
      Alcotest.(check bool) "names the injection" true
        (String.length msg >= 9 && String.sub msg 0 9 = "injected:")
  | r ->
      Alcotest.failf "chaos leaked through as %s" (Protocol.render_response r)

let test_handler_malformed_payload () =
  let cache = Strategy.Cache.create () in
  let h = Handler.create ~cache () in
  (match Handler.handle_payload h "query lambda=nope" with
  | Protocol.Failed _ -> ()
  | r -> Alcotest.failf "malformed payload answered %s"
           (Protocol.render_response r));
  Alcotest.(check int) "tables untouched" 0 (Strategy.Cache.builds cache)

(* An infinite horizon must never reach the cache: its table would have
   T* = 0 and stand as the covering parent of every later horizon on
   that platform, failing each with "horizon beyond the parent table".
   Replayed on one handler, the finite queries must answer exactly as
   on a fresh cache. *)
let test_handler_infinite_horizon_does_not_poison_cache () =
  let payload ~horizon ~tleft =
    Printf.sprintf
      "query lambda=0.001 c=10 r=10 d=0 horizon=%s quantum=1 tleft=%s \
       kleft=- recovering=0"
      horizon tleft
  in
  let h = Handler.create ~cache:(Strategy.Cache.create ()) () in
  (match Handler.handle_payload h (payload ~horizon:"inf" ~tleft:"100") with
  | Protocol.Failed _ -> ()
  | r ->
      Alcotest.failf "infinite horizon answered %s"
        (Protocol.render_response r));
  List.iter
    (fun horizon ->
      let p = payload ~horizon ~tleft:horizon in
      let fresh = Handler.create ~cache:(Strategy.Cache.create ()) () in
      let want = Handler.handle_payload fresh p in
      (match want with
      | Protocol.Answer { Protocol.k; _ } when k > 0 -> ()
      | r -> Alcotest.failf "fresh cache answered %s" (Protocol.render_response r));
      Alcotest.(check string)
        ("horizon " ^ horizon)
        (Protocol.render_response want)
        (Protocol.render_response (Handler.handle_payload h p)))
    [ "100"; "2000" ]

let test_handler_validation () =
  let cache = Strategy.Cache.create () in
  List.iter
    (fun thunk ->
      match thunk () with
      | (_ : Handler.t) -> Alcotest.fail "invalid handler accepted"
      | exception Invalid_argument _ -> ())
    [
      (fun () -> Handler.create ~budget:0.0 ~cache ());
      (fun () -> Handler.create ~slow:(-1.0) ~cache ());
    ]

let test_handler_session_requests_need_daemon () =
  let cache = Strategy.Cache.create () in
  let h = Handler.create ~cache () in
  List.iter
    (fun req ->
      match Handler.handle h req with
      | Protocol.Failed _ -> ()
      | r ->
          Alcotest.failf "session request answered %s"
            (Protocol.render_response r))
    [
      Protocol.Session_open (platform ());
      Protocol.Session_query
        {
          Protocol.sid = 1;
          sq_tleft = 1.0;
          sq_kleft = None;
          sq_recovering = false;
        };
      Protocol.Session_close 1;
    ]

let test_handler_batch_shares_table () =
  let cache = Strategy.Cache.create () in
  let h = Handler.create ~cache () in
  let reqs =
    [
      Ok (Protocol.Query (query ()));
      Ok (Protocol.Query (query ~tleft:120.0 ()));
      Error "torn frame: checksum mismatch";
      Ok Protocol.Ping;
      Ok (Protocol.Query (query ~tleft:80.0 ~recovering:true ()));
    ]
  in
  let replies = Handler.handle_batch h reqs in
  Alcotest.(check int) "one reply per member" (List.length reqs)
    (List.length replies);
  (match replies with
  | [
   Protocol.Answer _;
   Protocol.Answer _;
   Protocol.Failed msg;
   Protocol.Pong;
   Protocol.Answer _;
  ] ->
      Alcotest.(check string) "decode error answered in place"
        "torn frame: checksum mismatch" msg
  | _ -> Alcotest.fail "batch replies out of shape or order");
  (* Five queries on one platform, one table build for the whole
     batch — the shared cache round trip batching exists for. *)
  Alcotest.(check int) "the whole batch paid one build" 1
    (Strategy.Cache.builds cache);
  (* And batching never changes an answer: each member equals its
     sequential handling. *)
  List.iteri
    (fun i (req, batched) ->
      match req with
      | Ok r ->
          if Handler.handle h r <> batched then
            Alcotest.failf "batch member %d diverged from sequential" i
      | Error _ -> ())
    (List.combine reqs replies)

(* C = 0.0 and C = -0.0 are distinct tables to the cache, so one batch
   holding both spellings builds two, as two sequential [handle] calls
   do, and answers each exactly as they do. *)
let test_handler_batch_keeps_signed_zeros_apart () =
  let at c =
    Protocol.Query
      {
        (query ~tleft:100.0 ()) with
        Protocol.params = Fault.Params.make ~lambda:0.001 ~c ~r:20.0 ~d:0.0;
        horizon = 100.0;
      }
  in
  let reqs = [ at 0.0; at (-0.0) ] in
  let sequential = Strategy.Cache.create ()
  and batched = Strategy.Cache.create () in
  let one_by_one =
    List.map (Handler.handle (Handler.create ~cache:sequential ())) reqs
  in
  let together =
    Handler.handle_batch
      (Handler.create ~cache:batched ())
      (List.map Result.ok reqs)
  in
  Alcotest.(check int) "sequential handling builds two tables" 2
    (Strategy.Cache.builds sequential);
  Alcotest.(check int) "one batch builds the same two" 2
    (Strategy.Cache.builds batched);
  List.iter2
    (fun a b ->
      if Protocol.response_to_string a <> Protocol.response_to_string b then
        Alcotest.failf "batched %s vs sequential %s"
          (Protocol.render_response b) (Protocol.render_response a))
    one_by_one together

(* Allocation pin: a warm query renders no cache key. Rendering one with
   %.17g costs ~280 minor words and trips the bound. *)
let test_handler_warm_hit_allocation () =
  let h = Handler.create ~cache:(Strategy.Cache.create ()) () in
  let req = Protocol.Query (query ()) and n = 1000 in
  ignore (Handler.handle h req : Protocol.response);
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Handler.handle h req : Protocol.response)
  done;
  let per_query = (Gc.minor_words () -. w0) /. float_of_int n in
  if per_query > 350.0 then
    Alcotest.failf "warm Handler.handle: %.0f minor words (bound 350)"
      per_query

(* Allocation pins for a warm query through the daemon's whole path —
   frame in, decode, answer, encode, frame out — per wire mode. Checking
   a frame by rebuilding it, boxing the checksum per byte or splitting
   text into tokens trips them (about 1390 words over text and 580 over
   binary); on an OCaml 5 runtime every minor collection stops all
   domains. *)
let query_path_words ~mode ~spell ~decode ~encode =
  with_socketpair (fun a b ->
      let client = Wire.of_fd ~mode a and server = Wire.of_fd ~mode b in
      let h = Handler.create ~cache:(Strategy.Cache.create ()) () in
      let request = spell (Protocol.Query (query ())) in
      let round () =
        Wire.send client request;
        let w0 = Gc.minor_words () in
        (match Wire.recv server with
        | Error e -> Alcotest.failf "recv: %s" (Wire.error_message e)
        | Ok payload -> (
            match decode payload with
            | Error e -> Alcotest.failf "decode: %s" e
            | Ok req -> Wire.send server (encode (Handler.handle h req))));
        let words = Gc.minor_words () -. w0 in
        (match Wire.recv client with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "reply: %s" (Wire.error_message e));
        words
      in
      ignore (round () : float);
      let n = 1000 and total = ref 0.0 in
      for _ = 1 to n do
        total := !total +. round ()
      done;
      !total /. float_of_int n)

let test_query_path_allocation () =
  let pin what bound words =
    if words > bound then
      Alcotest.failf "warm %s query path: %.0f minor words (bound %.0f)" what
        words bound
  in
  pin "text" 700.0
    (query_path_words ~mode:Wire.Text ~spell:Protocol.request_to_string
       ~decode:Protocol.request_of_string ~encode:Protocol.response_to_string);
  pin "binary" 320.0
    (query_path_words ~mode:Wire.Binary ~spell:Protocol.request_to_binary
       ~decode:Protocol.request_of_binary ~encode:Protocol.response_to_binary)

(* The digest loop keeps its accumulator unboxed: only the result is
   allocated, whatever the length. *)
let test_fnv1a64_allocation () =
  List.iter
    (fun len ->
      let s = String.make len 'q' and n = 100 in
      ignore (Numerics.Checksum.fnv1a64 s : int64);
      let w0 = Gc.minor_words () in
      for _ = 1 to n do
        ignore (Sys.opaque_identity (Numerics.Checksum.fnv1a64 s) : int64)
      done;
      let per_call = (Gc.minor_words () -. w0) /. float_of_int n in
      if per_call > 4.0 then
        Alcotest.failf "fnv1a64 of %d bytes: %.1f minor words (bound 4)" len
          per_call)
    [ 0; 1; 118; 4096; 1 lsl 20 ]

(* in-process daemon *)

module Server = Serve.Server
module Client = Serve.Client

(* The journal holds the canonical spelling of each query the daemon
   answered, whichever spelling carried it — text (even with an extra
   field), binary, or a session query resolved against its platform —
   and nothing of a payload it refused. *)
let test_server_journals_canonical_queries () =
  with_seglog_temp (fun journal ->
      let socket = Filename.temp_file "fixedlen_serve" ".sock" in
      Sys.remove socket;
      let h =
        Server.start
          {
            Server.socket_path = socket;
            listen = None;
            workers = 1;
            queue_capacity = 4;
            batch = 2;
            max_conns = None;
            idle_timeout = None;
            max_sessions = 4;
            budget = None;
            slow = 0.0;
            journal = Some journal;
            journal_rotate = None;
            journal_compact = false;
            chaos = None;
            chaos_fs = None;
            max_tables = None;
            max_bytes = None;
            quiet = true;
          }
      in
      let text = Client.connect ~socket and binary = Client.connect ~socket in
      Fun.protect
        ~finally:(fun () ->
          Client.close text;
          Client.close binary;
          Server.stop h)
        (fun () ->
          let ask payload =
            Wire.send text payload;
            match Wire.recv text with
            | Ok reply -> Protocol.response_of_string reply
            | Error e -> Alcotest.failf "%S: %s" payload (Wire.error_message e)
          in
          List.iter
            (fun payload ->
              match ask payload with
              | Ok (Protocol.Failed _) -> ()
              | _ -> Alcotest.failf "%S was not refused" payload)
            [ "query lambda=nope"; "queryX" ];
          (match
             ask
               "query c=20 lambda=1e-3 r=20 d=0 horizon=500 quantum=1 \
                tleft=500 kleft=- recovering=0 junk=1"
           with
          | Ok (Protocol.Answer _) -> ()
          | _ -> Alcotest.fail "non-canonical text query not answered");
          (match Client.handshake binary ~binary:true with
          | Ok true -> ()
          | _ -> Alcotest.fail "binary hello refused");
          let request req =
            match Client.request binary req with
            | Ok resp -> resp
            | Error e -> Alcotest.failf "binary request: %s" e
          in
          (match request (Protocol.Query (query ())) with
          | Protocol.Answer _ -> ()
          | r -> Alcotest.failf "binary query: %s" (Protocol.render_response r));
          match request (Protocol.Session_open (platform ())) with
          | Protocol.Session sid -> (
              match
                request
                  (Protocol.Session_query
                     {
                       Protocol.sid;
                       sq_tleft = 120.5;
                       sq_kleft = Some 2;
                       sq_recovering = true;
                     })
              with
              | Protocol.Answer _ -> ()
              | r ->
                  Alcotest.failf "session query: %s" (Protocol.render_response r)
              )
          | r -> Alcotest.failf "session open: %s" (Protocol.render_response r));
      let log, r =
        Seglog.open_ ~point:"server-test" ~path:journal
          ~header:Server.journal_header ()
      in
      Seglog.close log;
      Alcotest.(check (list string))
        "the answered queries, canonically spelled"
        (List.map
           (fun q -> Protocol.request_to_string (Protocol.Query q))
           [ query (); query (); query ~tleft:120.5 ~kleft:2 ~recovering:true () ])
        r.Seglog.payloads)

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "request round-trip" `Quick
            test_request_round_trip;
          Alcotest.test_case "response round-trip" `Quick
            test_response_round_trip;
          Alcotest.test_case "golden spellings" `Quick test_golden_spellings;
          Alcotest.test_case "malformed rejected" `Quick
            test_malformed_requests;
          Alcotest.test_case "binary request round-trip" `Quick
            test_binary_request_round_trip;
          Alcotest.test_case "binary response round-trip" `Quick
            test_binary_response_round_trip;
          Alcotest.test_case "malformed binary rejected" `Quick
            test_malformed_binary_requests;
          binary_text_spellings_agree;
          decoders_are_total;
          text_decoder_matches_reference;
          Alcotest.test_case "text decoder is linear in its fields" `Quick
            test_text_decoder_is_linear;
          Alcotest.test_case "text decoder is linear under colliding keys"
            `Quick test_text_decoder_is_linear_under_collisions;
        ] );
      ( "wire",
        [
          Alcotest.test_case "round-trip" `Quick test_wire_round_trip;
          Alcotest.test_case "closed and torn" `Quick test_wire_closed_and_torn;
          Alcotest.test_case "damaged text frames are torn" `Quick
            test_wire_rejects_damaged_text_frames;
          Alcotest.test_case "max frame is per-connection" `Quick
            test_wire_max_frame_is_per_connection;
          Alcotest.test_case "hello negotiation" `Quick
            test_wire_hello_negotiation;
          Alcotest.test_case "legacy text client skips hello" `Quick
            test_wire_legacy_text_client_skips_hello;
          Alcotest.test_case "hello against legacy server" `Quick
            test_wire_hello_against_legacy_server;
          Alcotest.test_case "hello grant has a floor" `Quick
            test_wire_hello_grant_has_floor;
          Alcotest.test_case "stalled read is torn" `Quick
            test_wire_stalled_read_is_torn;
          Alcotest.test_case "hello clamps to hard max" `Quick
            test_wire_hello_clamps_to_hard_max;
        ] );
      ( "bqueue",
        [
          Alcotest.test_case "bound and fifo" `Quick test_bqueue_bound_and_fifo;
          Alcotest.test_case "capacity zero sheds" `Quick
            test_bqueue_capacity_zero_sheds_all;
          Alcotest.test_case "close drains" `Quick test_bqueue_close_drains;
          Alcotest.test_case "close wakes popper" `Quick
            test_bqueue_close_wakes_blocked_popper;
          Alcotest.test_case "pop batch" `Quick test_bqueue_pop_batch;
          Alcotest.test_case "close wakes batch popper" `Quick
            test_bqueue_close_wakes_blocked_batch_popper;
          Alcotest.test_case "try drain" `Quick test_bqueue_try_drain;
          Alcotest.test_case "evict" `Quick test_bqueue_evict;
        ] );
      ( "session",
        [
          Alcotest.test_case "open, resolve, close" `Quick
            test_session_open_resolve_close;
          Alcotest.test_case "lru eviction" `Quick test_session_lru_eviction;
        ] );
      ( "seglog",
        [
          Alcotest.test_case "rotates and recovers" `Quick
            test_seglog_rotates_and_recovers;
          Alcotest.test_case "no rotation = single file" `Quick
            test_seglog_without_rotation_is_single_file;
          Alcotest.test_case "mid-rotation duplicate dropped" `Quick
            test_seglog_drops_mid_rotation_duplicate;
          Alcotest.test_case "torn live tail truncated" `Quick
            test_seglog_truncates_torn_live_tail;
          Alcotest.test_case "validation" `Quick test_seglog_validation;
          Alcotest.test_case "compact merges and dedups" `Quick
            test_seglog_compact_merges_and_dedups;
          Alcotest.test_case "compact is idempotent" `Quick
            test_seglog_compact_idempotent;
          Alcotest.test_case "compact heals the crash window" `Quick
            test_seglog_compact_heals_crash_window;
        ] );
      ( "handler",
        [
          Alcotest.test_case "ping and stats" `Quick test_handler_ping_and_stats;
          Alcotest.test_case "answers match the tables" `Quick
            test_handler_answers_match_tables;
          Alcotest.test_case "random queries match the k-indexed tables"
            `Quick test_answers_match_reference;
          Alcotest.test_case "serve slot builds and bytes" `Quick
            test_serve_slot_builds_and_bytes;
          Alcotest.test_case "timeout on injected clock" `Quick
            test_handler_timeout_on_injected_clock;
          Alcotest.test_case "chaos is a typed failure" `Quick
            test_handler_chaos_is_typed_failure;
          Alcotest.test_case "malformed payload" `Quick
            test_handler_malformed_payload;
          Alcotest.test_case "infinite horizon does not poison the cache"
            `Quick test_handler_infinite_horizon_does_not_poison_cache;
          Alcotest.test_case "validation" `Quick test_handler_validation;
          Alcotest.test_case "session requests need the daemon" `Quick
            test_handler_session_requests_need_daemon;
          Alcotest.test_case "batch shares the table" `Quick
            test_handler_batch_shares_table;
          Alcotest.test_case "batch keeps signed zeros apart" `Quick
            test_handler_batch_keeps_signed_zeros_apart;
          Alcotest.test_case "warm hit stays off the minor heap" `Quick
            test_handler_warm_hit_allocation;
          Alcotest.test_case "warm query path allocation" `Quick
            test_query_path_allocation;
          Alcotest.test_case "fnv1a64 allocation" `Quick
            test_fnv1a64_allocation;
        ] );
      ( "server",
        [
          Alcotest.test_case "journal keeps canonical decoded queries" `Quick
            test_server_journals_canonical_queries;
        ] );
    ]
