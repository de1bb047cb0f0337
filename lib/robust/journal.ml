type entry = {
  c : float;
  strategy : string;
  t : float;
  mean : float;
  ci95 : float;
  mean_failures : float;
  mean_checkpoints : float;
}

type t = {
  chaos : Chaos.t option;
  lock : Mutex.t;
  index : (float * string * float, entry) Hashtbl.t;
  writer : Durable.Framed.writer;
  mutable appended : int;  (* total appends: chaos key stream *)
  mutable notes : string list;  (* newest first *)
  mutable closed : bool;
}

let header_of key = Printf.sprintf "# fixedlen-journal v2 %s" key

let no_whitespace what s =
  String.iter
    (fun ch ->
      if ch = ' ' || ch = '\t' || ch = '\n' || ch = '\r' then
        invalid_arg (Printf.sprintf "Journal: %s contains whitespace: %S" what s))
    s

let payload e =
  Printf.sprintf "p %.17g %s %.17g %.17g %.17g %.17g %.17g" e.c e.strategy e.t
    e.mean e.ci95 e.mean_failures e.mean_checkpoints

(* The frame layer already checksummed the payload; this only has to
   parse it. [None] marks the record (and everything after) as the
   corrupt tail. *)
let parse_payload p =
  match List.filter (fun s -> s <> "") (String.split_on_char ' ' p) with
  | [ "p"; c; strategy; t; mean; ci95; mf; mc ] -> (
      match
        ( float_of_string_opt c,
          float_of_string_opt t,
          float_of_string_opt mean,
          float_of_string_opt ci95,
          float_of_string_opt mf,
          float_of_string_opt mc )
      with
      | Some c, Some t, Some mean, Some ci95, Some mf, Some mc ->
          Some
            {
              c;
              strategy;
              t;
              mean;
              ci95;
              mean_failures = mf;
              mean_checkpoints = mc;
            }
      | _ -> None)
  | _ -> None

(* A well-formed journal header for some other producer — as opposed to
   bytes that are not a journal header at all. The distinction decides
   strict-mode behaviour: refusing to resume someone else's valid
   journal protects their data; a corrupt header has no data to protect
   and is quarantined instead. *)
let foreign_header h =
  match String.split_on_char ' ' h with
  | [ "#"; "fixedlen-journal"; "v2"; key ] -> key <> ""
  | _ -> false

(* The chaos-fs write site of every journal: [--chaos-crash-at journal:N]. *)
let point = "journal"

let open_ ?chaos ?fs ?(strict = false) ~path ~key () =
  no_whitespace "key" key;
  let notes = ref [] in
  let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt in
  let wrap_open f =
    try f ()
    with Unix.Unix_error (err, _, _) ->
      failwith
        (Printf.sprintf "cannot open journal %s: %s" path
           (Unix.error_message err))
  in
  let start_fresh () =
    wrap_open (fun () ->
        Durable.Framed.create ?chaos:fs ~point ~path ~header:(header_of key) ())
  in
  let quarantine_and_restart reason =
    let qpath = Durable.quarantine ~path ~reason in
    note "journal %s: %s; quarantined to %s, starting fresh" path reason qpath;
    (start_fresh (), [])
  in
  let writer, accepted =
    if not (Sys.file_exists path) then begin
      (* Notable under --resume: a mistyped path quietly recomputes
         everything, so say that a brand-new journal was started. *)
      if strict then note "journal %s did not exist: starting fresh" path;
      (start_fresh (), [])
    end
    else begin
      let scan = wrap_open (fun () -> Durable.Framed.scan ~path) in
      match scan.Durable.Framed.header with
      | None when scan.Durable.Framed.length = 0 ->
          if strict then note "journal %s was empty: starting fresh" path;
          (start_fresh (), [])
      | None -> quarantine_and_restart "torn header (no complete header line)"
      | Some h when h <> header_of key ->
          if foreign_header h then
            if strict then
              failwith
                (Printf.sprintf
                   "Journal.open_: %s was written by a different spec/seed \
                    (expected header %S); refusing to resume — delete the \
                    file or drop --resume to start over"
                   path (header_of key))
            else begin
              let qpath =
                Durable.quarantine ~path
                  ~reason:
                    (Printf.sprintf "journal key mismatch (expected %S)"
                       (header_of key))
              in
              note
                "journal %s did not match this spec; quarantined to %s, \
                 starting fresh"
                path qpath;
              (start_fresh (), [])
            end
          else quarantine_and_restart "unrecognised journal header"
      | Some _ ->
          (* Our header. Accept intact records up to the first one that
             is torn, checksum-damaged, or semantically unparsable; the
             tail after that point is truncated — the expected outcome
             of a crash mid-append. *)
          let accepted = ref [] in
          let keep = ref scan.Durable.Framed.length in
          let corrupt = ref None in
          List.iter
            (fun (offset, p) ->
              if !corrupt = None then
                match parse_payload p with
                | Some e -> accepted := e :: !accepted
                | None -> corrupt := Some offset)
            scan.Durable.Framed.records;
          (match (!corrupt, scan.Durable.Framed.tail_error) with
          | Some offset, _ | None, Some (offset, _) -> keep := offset
          | None, None -> ());
          if !keep < scan.Durable.Framed.length then
            note
              "journal %s: corrupted tail at byte %d truncated (%d good \
               records kept)"
              path !keep
              (List.length !accepted);
          let writer =
            wrap_open (fun () ->
                Durable.Framed.open_append ?chaos:fs ~point ~path ~keep:!keep ())
          in
          (writer, List.rev !accepted)
    end
  in
  let index = Hashtbl.create 256 in
  List.iter
    (fun e -> Hashtbl.replace index (e.c, e.strategy, e.t) e)
    accepted;
  {
    chaos;
    lock = Mutex.create ();
    index;
    writer;
    appended = 0;
    notes = !notes;
    closed = false;
  }

let check_open t = if t.closed then invalid_arg "Journal: used after close"
let warnings t = List.rev t.notes
let length t = Mutex.protect t.lock (fun () -> Hashtbl.length t.index)

let find t ~c ~strategy ~t:horizon =
  Mutex.protect t.lock (fun () ->
      Hashtbl.find_opt t.index (c, strategy, horizon))

let append t e =
  no_whitespace "strategy" e.strategy;
  Mutex.protect t.lock (fun () ->
      check_open t;
      let seq = t.appended in
      t.appended <- seq + 1;
      (match t.chaos with
      | Some chaos -> Chaos.inject chaos ~key:seq ~attempt:0
      | None -> ());
      Durable.Framed.append t.writer (payload e);
      Hashtbl.replace t.index (e.c, e.strategy, e.t) e)

let close t =
  Mutex.protect t.lock (fun () ->
      check_open t;
      t.closed <- true;
      Durable.Framed.close t.writer)
