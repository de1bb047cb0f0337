module Framed = Robust.Durable.Framed

type t = {
  path : string;
  header : string;
  point : string;
  chaos : Robust.Chaos_fs.t option;
  rotate_bytes : int option;
  mutable writer : Framed.writer;
  mutable live_bytes : int;
  mutable sealed : int;
}

type recovery = {
  payloads : string list;
  sealed : int;
  warnings : string list;
}

let segment_path path n = Printf.sprintf "%s.%d" path n

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

(* Sealed segments are numbered densely from 1; the first gap ends the
   sequence, so a crash can never resurrect a stale higher-numbered
   segment from a previous journal generation (seals replace atomically
   and the numbering restarts only when the whole journal is removed). *)
let count_segments path =
  let rec go n =
    if Sys.file_exists (segment_path path (n + 1)) then go (n + 1) else n
  in
  go 0

let scan_segment ~header ~warnings path =
  let scan = Framed.scan ~path in
  match scan.Framed.header with
  | Some h when String.equal h header ->
      (match scan.Framed.tail_error with
      | None -> ()
      | Some (off, why) ->
          (* Should be impossible for an atomically published file;
             report it and keep the intact prefix. *)
          warnings :=
            Printf.sprintf "segment %s: damaged at byte %d (%s); %d record(s) kept"
              path off why
              (List.length scan.Framed.records)
            :: !warnings);
      List.map snd scan.Framed.records
  | _ ->
      let q = Robust.Durable.quarantine ~path ~reason:"unrecognised journal segment header" in
      warnings := Printf.sprintf "segment %s: unrecognised header, quarantined to %s" path q :: !warnings;
      []

let open_ ?chaos ?rotate_bytes ~point ~path ~header () =
  (match rotate_bytes with
  | Some b when b <= 0 -> invalid_arg "Seglog.open_: rotate_bytes must be positive"
  | _ -> ());
  let warnings = ref [] in
  let sealed = count_segments path in
  let sealed_payloads =
    List.concat_map
      (fun n -> scan_segment ~header ~warnings (segment_path path n))
      (List.init sealed (fun i -> i + 1))
  in
  let fresh () =
    Framed.create ?chaos ~point ~path ~header ()
  in
  let writer, live_payloads =
    if not (Sys.file_exists path) then (fresh (), [])
    else begin
      let scan = Framed.scan ~path in
      match scan.Framed.header with
      | Some h when String.equal h header ->
          let newest_seal =
            if sealed = 0 then None
            else Some (read_file (segment_path path sealed))
          in
          let live = read_file path in
          if newest_seal = Some live then begin
            (* Rotation died between publishing the seal and resetting
               the live file: the live bytes are already recovered from
               the segment. Start the live file over. *)
            warnings :=
              Printf.sprintf
                "live file duplicates segment %s (crash mid-rotation); dropped"
                (segment_path path sealed)
              :: !warnings;
            (fresh (), [])
          end
          else begin
            let keep =
              match scan.Framed.tail_error with
              | None -> scan.Framed.length
              | Some (off, why) ->
                  warnings :=
                    Printf.sprintf
                      "corrupted tail at byte %d (%s) truncated (%d good record(s) kept)"
                      off why
                      (List.length scan.Framed.records)
                    :: !warnings;
                  off
            in
            ( Framed.open_append ?chaos ~point ~path ~keep (),
              List.map snd scan.Framed.records )
          end
      | _ ->
          let q = Robust.Durable.quarantine ~path ~reason:"unrecognised serve journal header" in
          warnings := Printf.sprintf "unrecognised header, quarantined to %s" q :: !warnings;
          (fresh (), [])
    end
  in
  let live_bytes = (Unix.stat path).Unix.st_size in
  let t =
    { path; header; point; chaos; rotate_bytes; writer; live_bytes; sealed }
  in
  ( t,
    {
      payloads = sealed_payloads @ live_payloads;
      sealed;
      warnings = List.rev !warnings;
    } )

let rotate (t : t) =
  (* Publish first, reset second: if the seal fails the live writer is
     untouched, and the crash window between the two steps is exactly
     the duplicate the recovery scan drops. *)
  let n = t.sealed + 1 in
  Robust.Durable.write_atomic ?chaos:t.chaos ~point:(t.point ^ "-seal")
    ~path:(segment_path t.path n)
    (read_file t.path);
  t.sealed <- n;
  Framed.close t.writer;
  t.writer <- Framed.create ?chaos:t.chaos ~point:t.point ~path:t.path ~header:t.header ();
  t.live_bytes <- String.length t.header + 1

let append t payload =
  Framed.append t.writer payload;
  t.live_bytes <- t.live_bytes + Framed.frame_length payload;
  match t.rotate_bytes with
  | Some limit when t.live_bytes > limit -> rotate t
  | _ -> ()

let sealed (t : t) = t.sealed

let close t = Framed.close t.writer

type compaction = {
  segments_merged : int;
  records_kept : int;
  duplicates_dropped : int;
  compact_warnings : string list;
}

(* Merge every sealed segment into a single [path.1]. Runs on a closed
   journal only (before {!open_}): the live file is never touched, so a
   torn live tail is still repaired by the subsequent open. Publish
   first, unlink second, highest number first — a crash mid-compaction
   leaves either the old dense segment sequence (publish never landed:
   write_atomic is all-or-nothing) or a dense prefix whose first segment
   already holds every record; the duplicated bytes in not-yet-unlinked
   segments are byte-identical records, which the next compaction run
   drops again. *)
let compact ?chaos ~point ~path ~header () =
  let n = count_segments path in
  if n < 2 then None
  else begin
    let warnings = ref [] in
    let payloads =
      List.concat_map
        (fun i -> scan_segment ~header ~warnings (segment_path path i))
        (List.init n (fun i -> i + 1))
    in
    let seen = Hashtbl.create (List.length payloads) in
    let kept =
      List.filter
        (fun payload ->
          if Hashtbl.mem seen payload then false
          else begin
            Hashtbl.add seen payload ();
            true
          end)
        payloads
    in
    let buf = Buffer.create 4096 in
    Buffer.add_string buf header;
    Buffer.add_char buf '\n';
    List.iter (fun payload -> Buffer.add_string buf (Framed.frame payload)) kept;
    Robust.Durable.write_atomic ?chaos ~point:(point ^ "-compact")
      ~path:(segment_path path 1) (Buffer.contents buf);
    for i = n downto 2 do
      try Sys.remove (segment_path path i) with Sys_error _ -> ()
    done;
    Some
      {
        segments_merged = n;
        records_kept = List.length kept;
        duplicates_dropped = List.length payloads - List.length kept;
        compact_warnings = List.rev !warnings;
      }
  end
