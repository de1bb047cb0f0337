let fsync_dir dir =
  (* Directory fsync makes the rename itself durable. Some filesystems
     refuse to open or fsync a directory; losing that last nine of
     durability there is better than failing the publish. *)
  match Unix.openfile dir [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())

(* Write the whole string, looping on partial writes. [chaos] intercepts
   the first syscall of the payload: a planned short write exercises
   this very loop; a planned error or crash leaves a deterministic
   prefix on disk first, like a full disk or a power cut would. *)
let write_all ?chaos ~point fd s =
  let bytes = Bytes.unsafe_of_string s in
  let len = Bytes.length bytes in
  let plan =
    match chaos with
    | Some c -> Chaos_fs.plan c ~point ~len
    | None -> Chaos_fs.Write_all
  in
  let write_exactly ofs n =
    let written = ref 0 in
    while !written < n do
      written := !written + Unix.write fd bytes (ofs + !written) (n - !written)
    done
  in
  match plan with
  | Chaos_fs.Write_all -> write_exactly 0 len
  | Chaos_fs.Short_write n ->
      (* The injected syscall "returns" n < len; the loop must finish. *)
      write_exactly 0 n;
      write_exactly n (len - n)
  | Chaos_fs.Fail_after (n, err) ->
      write_exactly 0 n;
      raise (Unix.Unix_error (err, "write", point))
  | Chaos_fs.Crash_after n ->
      write_exactly 0 n;
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      Unix.kill (Unix.getpid ()) Sys.sigkill;
      (* SIGKILL cannot be handled; this point is unreachable. *)
      assert false

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_atomic ?chaos ?(point = "publish") ~path content =
  let tmp = path ^ ".tmp" in
  let fd =
    Unix.openfile tmp
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
      0o644
  in
  (try
     write_all ?chaos ~point fd content;
     Unix.fsync fd
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Unix.close fd;
  Sys.rename tmp path;
  fsync_dir (Filename.dirname path)

let quarantine ~path ~reason =
  let qpath = path ^ ".quarantine" in
  Sys.rename path qpath;
  (* The sidecar is best-effort: quarantining must survive the very
     disk conditions that corrupted the file in the first place. *)
  (try
     write_atomic ~path:(qpath ^ ".reason")
       (Printf.sprintf "file: %s\nquarantined-to: %s\nreason: %s\n" path qpath
          reason)
   with Unix.Unix_error _ | Sys_error _ -> ());
  qpath

module Framed = struct
  type scan = {
    header : string option;
    records : (int * string) list;
    tail_error : (int * string) option;
    length : int;
  }

  let rec decimal_digits n = if n < 10 then 1 else 1 + decimal_digits (n / 10)

  let frame_length payload =
    let len = String.length payload in
    decimal_digits len + 1 + len + 18

  (* <decimal-len> ' ' <payload> ' ' <16-hex-fnv64> '\n' *)
  let blit_frame payload dst off =
    let len = String.length payload in
    let p = off + decimal_digits len + 1 in
    let n = ref len in
    for i = p - 2 downto off do
      Bytes.set dst i (Char.chr (48 + (!n mod 10)));
      n := !n / 10
    done;
    Bytes.set dst (p - 1) ' ';
    Bytes.blit_string payload 0 dst p len;
    Bytes.set dst (p + len) ' ';
    Bytes.blit_string
      (Numerics.Checksum.to_hex (Numerics.Checksum.fnv1a64 payload))
      0 dst (p + len + 1) 16;
    Bytes.set dst (p + len + 17) '\n';
    p + len + 18

  let frame payload =
    let b = Bytes.create (frame_length payload) in
    ignore (blit_frame payload b 0 : int);
    Bytes.unsafe_to_string b

  let is_digit ch = ch >= '0' && ch <= '9'

  (* Longest length prefix a scan reads; a frame stays far below it. *)
  let max_digits = 10

  (* The 16 bytes of [s] at [at] are [to_hex digest]. *)
  let spells_digest s at digest =
    let hex = Numerics.Checksum.to_hex digest and i = ref 0 in
    while !i < 16 && s.[at + !i] = hex.[!i] do
      incr i
    done;
    !i = 16

  let check s ~pos ~limit =
    let j = ref pos and len = ref 0 in
    while !j < limit && !j - pos < max_digits && is_digit s.[!j] do
      len := (10 * !len) + Char.code s.[!j] - 48;
      incr j
    done;
    let p = !j + 1 and len = !len in
    (* A leading zero is refused: [frame] never writes one. *)
    if
      !j = pos || !j >= limit
      || s.[!j] <> ' '
      || (s.[pos] = '0' && !j > pos + 1)
    then Error "torn or malformed length prefix"
    else if p + len + 18 > limit then
      Error "record extends past end of file (torn write)"
    else if s.[p + len] <> ' ' || s.[p + len + 17] <> '\n' then
      Error "record framing bytes corrupt"
    else if
      not
        (spells_digest s (p + len + 1) (Numerics.Checksum.fnv1a64_sub s p len))
    then Error "record checksum mismatch"
    else Ok (p, len)

  let scan_content content =
    let len = String.length content in
    match String.index_opt content '\n' with
    | None -> { header = None; records = []; tail_error = None; length = len }
    | Some header_end ->
        let rec records offset acc =
          if offset >= len then (List.rev acc, None)
          else
            match check content ~pos:offset ~limit:len with
            | Ok (p, plen) ->
                let record = (offset, String.sub content p plen) in
                records (p + plen + 18) (record :: acc)
            | Error cause -> (List.rev acc, Some (offset, cause))
        in
        let records, tail_error = records (header_end + 1) [] in
        {
          header = Some (String.sub content 0 header_end);
          records;
          tail_error;
          length = len;
        }

  let scan ~path = scan_content (read_file path)

  type writer = {
    fd : Unix.file_descr;
    point : string;
    chaos : Chaos_fs.t option;
    mutable closed : bool;
  }

  let create ?chaos ~point ~path ~header () =
    let fd =
      Unix.openfile path
        [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
        0o644
    in
    (try
       write_all ?chaos ~point:(point ^ "-header") fd (header ^ "\n");
       Unix.fsync fd;
       fsync_dir (Filename.dirname path)
     with e ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       raise e);
    { fd; point; chaos; closed = false }

  let open_append ?chaos ~point ~path ~keep () =
    let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0o644 in
    (try
       Unix.ftruncate fd keep;
       ignore (Unix.lseek fd 0 Unix.SEEK_END)
     with e ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       raise e);
    { fd; point; chaos; closed = false }

  let check_open w =
    if w.closed then invalid_arg "Durable.Framed: writer used after close"

  let append w payload =
    check_open w;
    let start = Unix.lseek w.fd 0 Unix.SEEK_CUR in
    (try write_all ?chaos:w.chaos ~point:w.point w.fd (frame payload)
     with e ->
       (* Repair: a failed append may have left a prefix of the frame on
          disk; truncating back keeps the store appendable — without
          this, a retried append would land after torn bytes and the
          recovery scan would discard it along with the tear. *)
       (try
          Unix.ftruncate w.fd start;
          ignore (Unix.lseek w.fd start Unix.SEEK_SET)
        with Unix.Unix_error _ -> ());
       raise e);
    Unix.fsync w.fd

  let close w =
    check_open w;
    w.closed <- true;
    try Unix.close w.fd with Unix.Unix_error _ -> ()
end
