type mode = Text | Binary

type error = Closed | Torn of string

let error_message = function
  | Closed -> "connection closed"
  | Torn why -> "torn frame: " ^ why

let default_max_frame = 1 lsl 20
let hard_max_frame = 1 lsl 26
let min_max_frame = 4096

type conn = {
  fd : Unix.file_descr;
  mutable mode : mode;
  mutable max_frame : int;
  (* Read buffer: one [Unix.read] takes as many bytes as fit, so a frame
     costs O(1) syscalls instead of one per prefix byte. [pos, len) is the
     unread window. A frame is checked where it lies in the buffer, which
     grows to hold a frame larger than itself and shrinks back once
     drained. *)
  mutable buf : Bytes.t;
  mutable pos : int;
  mutable len : int;
}

let buffer_size = 8192

let of_fd ?(mode = Text) ?(max_frame = default_max_frame) fd =
  if max_frame < 1 || max_frame > hard_max_frame then
    invalid_arg "Wire.of_fd: max_frame out of range";
  { fd; mode; max_frame; buf = Bytes.create buffer_size; pos = 0; len = 0 }

let fd conn = conn.fd
let mode conn = conn.mode
let max_frame conn = conn.max_frame
let buffered conn = conn.pos < conn.len

let rec restart_on_eintr f =
  try f () with Unix.Unix_error (Unix.EINTR, _, _) -> restart_on_eintr f

(* A socket receive timeout (SO_RCVTIMEO) expiring mid-read. Raised out
   of [ensure] and converted to [Torn] at every public read entry point,
   so a peer that stalls half way through a frame surfaces as a damaged
   connection, never as an exception escaping the caller's loop. *)
exception Stalled

let stall_guard f =
  try f ()
  with Stalled -> Error (Torn "receive timed out waiting for frame bytes")

let write_all fd bytes =
  let len = Bytes.length bytes in
  let off = ref 0 in
  while !off < len do
    let n =
      restart_on_eintr (fun () -> Unix.write fd bytes !off (len - !off))
    in
    off := !off + n
  done

(* Make the next [n] unread bytes contiguous at [pos], reading as needed;
   [false] on EOF before they all arrive. *)
let rec fill conn n =
  conn.len - conn.pos >= n
  ||
  let got =
    try
      restart_on_eintr (fun () ->
          Unix.read conn.fd conn.buf conn.len
            (Bytes.length conn.buf - conn.len))
    with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      raise Stalled
  in
  conn.len <- conn.len + got;
  got > 0 && fill conn n

let ensure conn n =
  conn.len - conn.pos >= n
  ||
  let cap = Bytes.length conn.buf in
  if conn.pos + n > cap then begin
    let buf = if n > cap then Bytes.create n else conn.buf in
    Bytes.blit conn.buf conn.pos buf 0 (conn.len - conn.pos);
    conn.buf <- buf;
    conn.len <- conn.len - conn.pos;
    conn.pos <- 0
  end;
  fill conn n

let consume conn n =
  conn.pos <- conn.pos + n;
  if conn.pos = conn.len then begin
    conn.pos <- 0;
    conn.len <- 0;
    if Bytes.length conn.buf > buffer_size then
      conn.buf <- Bytes.create buffer_size
  end

(* An EOF inside a frame drops what arrived of it. *)
let consume_all conn = consume conn (conn.len - conn.pos)

let peek_byte conn =
  if ensure conn 1 then Some (Bytes.get conn.buf conn.pos) else None

let read_exact conn n =
  if ensure conn n then begin
    let s = Bytes.sub_string conn.buf conn.pos n in
    consume conn n;
    Some s
  end
  else begin
    consume_all conn;
    None
  end

let too_long conn len =
  Torn
    (Printf.sprintf "frame length %d exceeds max frame %d" len conn.max_frame)

(* binary framing: 4-byte LE length, payload, 8-byte LE fnv1a64 *)

let blit_binary payload dst off =
  let len = String.length payload in
  Bytes.set_int32_le dst off (Int32.of_int len);
  Bytes.blit_string payload 0 dst (off + 4) len;
  Bytes.set_int64_le dst (off + 4 + len) (Numerics.Checksum.fnv1a64 payload);
  off + 4 + len + 8

let frame_length conn payload =
  if String.length payload > conn.max_frame then
    invalid_arg
      (Printf.sprintf "Wire.send: payload length %d exceeds max frame %d"
         (String.length payload) conn.max_frame);
  match conn.mode with
  | Text -> Robust.Durable.Framed.frame_length payload
  | Binary -> 4 + String.length payload + 8

let rec frames_length conn n = function
  | [] -> n
  | payload :: rest -> frames_length conn (n + frame_length conn payload) rest

let rec blit_frames conn dst off = function
  | [] -> ()
  | payload :: rest ->
      let next =
        match conn.mode with
        | Text -> Robust.Durable.Framed.blit_frame payload dst off
        | Binary -> blit_binary payload dst off
      in
      blit_frames conn dst next rest

let send_many conn payloads =
  (* Every frame goes into one buffer and out with one write: framing per
     payload is unchanged, so a receiver cannot tell the difference, but a
     reply batch costs one [write] instead of one per frame. *)
  let dst = Bytes.create (frames_length conn 0 payloads) in
  blit_frames conn dst 0 payloads;
  write_all conn.fd dst

let send conn payload = send_many conn [ payload ]

(* A text frame is read in two steps: the decimal length prefix, up to
   its separating space, which bounds the frame before any of its body is
   buffered; then the whole frame, checked in place by
   [Framed.check] — the journal's own record check, so acceptance means
   exactly that these are the bytes [Framed.frame] writes for the
   payload, and a non-canonical prefix (a leading zero) is refused. *)
let rec text_prefix conn i len =
  if not (ensure conn (i + 1)) then begin
    consume_all conn;
    if i = 0 then Error Closed else Error (Torn "eof inside length prefix")
  end
  else
    match Bytes.get conn.buf (conn.pos + i) with
    | ' ' when i > 0 -> text_body conn ~head:(i + 1) len
    | '0' .. '9' when i >= 8 ->
        consume conn (i + 1);
        Error (Torn "oversized length prefix")
    | '0' .. '9' as c ->
        text_prefix conn (i + 1) ((10 * len) + Char.code c - 48)
    | _ ->
        consume conn (i + 1);
        Error (Torn "non-digit in length prefix")

and text_body conn ~head len =
  if len > conn.max_frame then begin
    consume conn head;
    Error (too_long conn len)
  end
  else if not (ensure conn (head + len + 18)) then begin
    consume_all conn;
    Error (Torn "eof inside frame body")
  end
  else
    let result =
      match
        Robust.Durable.Framed.check
          (Bytes.unsafe_to_string conn.buf)
          ~pos:conn.pos ~limit:conn.len
      with
      | Ok (at, n) -> Ok (Bytes.sub_string conn.buf at n)
      | Error _ -> Error (Torn "checksum mismatch")
    in
    consume conn (head + len + 18);
    result

let recv_text conn = text_prefix conn 0 0

let recv_binary conn =
  if not (ensure conn 4) then begin
    let torn = buffered conn in
    consume_all conn;
    if torn then Error (Torn "eof inside frame header") else Error Closed
  end
  else
    let len = Int32.to_int (Bytes.get_int32_le conn.buf conn.pos) in
    if len < 0 || len > conn.max_frame then begin
      consume conn 4;
      if len < 0 then
        Error (Torn (Printf.sprintf "negative frame length %d" len))
      else Error (too_long conn len)
    end
    else if not (ensure conn (4 + len + 8)) then begin
      consume_all conn;
      Error (Torn "eof inside frame body")
    end
    else
      let at = conn.pos + 4 in
      let sum =
        Numerics.Checksum.fnv1a64_sub (Bytes.unsafe_to_string conn.buf) at len
      in
      let result =
        if Int64.equal sum (Bytes.get_int64_le conn.buf (at + len)) then
          Ok (Bytes.sub_string conn.buf at len)
        else Error (Torn "checksum mismatch")
      in
      consume conn (4 + len + 8);
      result

let recv conn =
  stall_guard (fun () ->
      match conn.mode with Text -> recv_text conn | Binary -> recv_binary conn)

(* hello negotiation: 5 bytes each way, [mode byte; 4-byte LE max
   frame]. A text frame always opens with a decimal digit, so a
   non-digit first byte from a fresh connection is unambiguously a
   hello — legacy text clients never send one and are never asked
   to. *)

let hello_char = function Text -> 'T' | Binary -> 'B'

let client_hello conn ~mode ?max_frame () =
  let requested = match max_frame with None -> 0 | Some m -> m in
  if requested < 0 || requested > hard_max_frame then
    invalid_arg "Wire.client_hello: max_frame out of range";
  let hello = Bytes.create 5 in
  Bytes.set hello 0 (hello_char mode);
  Bytes.set_int32_le hello 1 (Int32.of_int requested);
  write_all conn.fd hello;
  stall_guard @@ fun () ->
  match peek_byte conn with
  | None -> Error Closed
  | Some '0' .. '9' ->
      (* A pre-negotiation server (or one shedding at admission)
         answered with a legacy text frame; leave it buffered for the
         caller's [recv] and stay in text mode. *)
      Ok false
  | Some _ -> (
      match read_exact conn 5 with
      | None -> Error (Torn "eof inside hello ack")
      | Some ack ->
          if not (Char.equal ack.[0] (hello_char mode)) then
            Error
              (Torn
                 (Printf.sprintf "hello ack mode %C, expected %C" ack.[0]
                    (hello_char mode)))
          else
            let granted = Int32.to_int (String.get_int32_le ack 1) in
            if granted < 1 || granted > hard_max_frame then
              Error
                (Torn
                   (Printf.sprintf "hello ack granted absurd max frame %d"
                      granted))
            else begin
              conn.mode <- mode;
              conn.max_frame <- granted;
              Ok true
            end)

let server_negotiate conn =
  stall_guard @@ fun () ->
  match peek_byte conn with
  | None -> Error Closed
  | Some '0' .. '9' -> Ok () (* legacy text client: nothing consumed *)
  | Some _ -> (
      match read_exact conn 5 with
      | None -> Error (Torn "eof inside hello")
      | Some hello -> (
          match hello.[0] with
          | ('T' | 'B') as m ->
              let requested = Int32.to_int (String.get_int32_le hello 1) in
              if requested < 0 then
                Error
                  (Torn
                     (Printf.sprintf "hello requested negative max frame %d"
                        requested))
              else begin
                (* The grant is clamped into [min_max_frame,
                   hard_max_frame]: a floor as well as a ceiling, because
                   the server must always be able to frame its own
                   replies — a 1-byte grant would make every answer an
                   oversized send and hand the client a remote crash. *)
                let granted =
                  if requested = 0 then default_max_frame
                  else min (max requested min_max_frame) hard_max_frame
                in
                let ack = Bytes.create 5 in
                Bytes.set ack 0 m;
                Bytes.set_int32_le ack 1 (Int32.of_int granted);
                write_all conn.fd ack;
                conn.mode <- (if Char.equal m 'B' then Binary else Text);
                conn.max_frame <- granted;
                Ok ()
              end
          | c -> Error (Torn (Printf.sprintf "unknown hello mode byte %C" c))))
