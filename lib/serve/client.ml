(* An endpoint containing ':' is HOST:PORT (TCP); anything else is a
   Unix-domain socket path. Unix paths with colons lose, but the CLI
   default and every drill use plain filenames. *)
let is_tcp socket = String.contains socket ':'

let resolve_host host =
  if String.equal host "" then Unix.inet_addr_loopback
  else
    try Unix.inet_addr_of_string host
    with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)

let connect_fd ~socket =
  if is_tcp socket then begin
    let i = String.rindex socket ':' in
    let host = String.sub socket 0 i in
    let port =
      match
        int_of_string_opt (String.sub socket (i + 1) (String.length socket - i - 1))
      with
      | Some p when p > 0 && p <= 65535 -> p
      | _ -> invalid_arg (Printf.sprintf "Client.connect: bad port in %S" socket)
    in
    let addr = resolve_host host in
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    match
      Unix.connect fd (Unix.ADDR_INET (addr, port));
      Unix.setsockopt fd Unix.TCP_NODELAY true
    with
    | () -> fd
    | exception e ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        raise e
  end
  else begin
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> fd
    | exception e ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        raise e
  end

let connect ~socket = Wire.of_fd (connect_fd ~socket)

let close conn = try Unix.close (Wire.fd conn) with Unix.Unix_error _ -> ()

let handshake ?max_frame conn ~binary =
  if (not binary) && max_frame = None then Ok true
  else
    match
      Wire.client_hello conn
        ~mode:(if binary then Wire.Binary else Wire.Text)
        ?max_frame ()
    with
    | Ok negotiated -> Ok negotiated
    | Error e -> Error (Wire.error_message e)
    | exception Unix.Unix_error (err, _, _) ->
        Error ("hello failed: " ^ Unix.error_message err)

let encode_request conn req =
  match Wire.mode conn with
  | Wire.Text -> Protocol.request_to_string req
  | Wire.Binary -> Protocol.request_to_binary req

let decode_response conn payload =
  match Wire.mode conn with
  | Wire.Text -> Protocol.response_of_string payload
  | Wire.Binary -> Protocol.response_of_binary payload

let request conn req =
  (* A shedding server replies and closes before reading the request, so
     the send can fail (EPIPE) while a perfectly good [overloaded] frame
     sits in our receive buffer — always try the read, and only report
     the send failure when nothing came back. *)
  let send_error =
    match Wire.send conn (encode_request conn req) with
    | () -> None
    | exception Unix.Unix_error (err, _, _) ->
        Some ("send failed: " ^ Unix.error_message err)
  in
  match Wire.recv conn with
  | Ok payload -> (
      match decode_response conn payload with
      | Ok resp -> Ok resp
      | Error msg -> Error ("bad response: " ^ msg))
  | Error e -> (
      match send_error with
      | Some msg -> Error msg
      | None -> Error (Wire.error_message e))

(* Retry currency: shedding and an absent daemon are the transient
   conditions backoff exists for; anything else surfaces immediately. *)
exception Shed
exception Unavailable of string

(* The policy stays what the caller built; only the jitter stream is
   re-seeded, so FIXEDLEN_SERVE_SEED (or ?seed) makes a shedding-retry
   drill deterministic without touching its attempt/backoff shape. *)
let reseed (retry : Robust.Retry.t) seed =
  match seed with
  | None -> retry
  | Some seed ->
      Robust.Retry.make ~attempts:retry.Robust.Retry.attempts
        ~base_delay:retry.Robust.Retry.base_delay
        ~multiplier:retry.Robust.Retry.multiplier
        ~jitter:retry.Robust.Retry.jitter
        ~decorrelated:retry.Robust.Retry.decorrelated
        ~max_delay:retry.Robust.Retry.max_delay ~seed ()

let env_seed () =
  match Sys.getenv_opt "FIXEDLEN_SERVE_SEED" with
  | None -> None
  | Some v -> Int64.of_string_opt v

let query ?(retry = Robust.Retry.no_retry) ?sleep ?seed ?(binary = false)
    ?max_frame ~socket req =
  let retry =
    reseed retry (match seed with Some _ -> seed | None -> env_seed ())
  in
  let key =
    Int64.to_int (Numerics.Checksum.fnv1a64 (Protocol.request_to_string req))
  in
  let once ~attempt:_ =
    match connect ~socket with
    | exception Unix.Unix_error (err, _, _) ->
        raise (Unavailable (Unix.error_message err))
    | conn -> (
        let result =
          Fun.protect
            ~finally:(fun () -> close conn)
            (fun () ->
              match handshake ?max_frame conn ~binary with
              | Error msg -> Error msg
              | Ok _negotiated -> request conn req)
        in
        match result with Ok Protocol.Overloaded -> raise Shed | r -> r)
  in
  match Robust.Retry.run ?sleep retry ~key once with
  | Ok r -> r
  | Error Shed -> Ok Protocol.Overloaded
  | Error (Unavailable msg) -> Error ("daemon unavailable: " ^ msg)
  | Error e -> Error (Printexc.to_string e)
