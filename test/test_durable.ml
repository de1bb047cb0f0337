(* Tests for Robust.Durable (atomic publish, framed append-only stores,
   quarantine) and Robust.Chaos_fs (deterministic filesystem fault
   injection). The centrepiece is the truncation property: a framed
   store cut at EVERY byte offset recovers exactly the prefix of intact
   records, without ever raising. *)

module D = Robust.Durable
module Chaos_fs = Robust.Chaos_fs

let with_temp f =
  let path = Filename.temp_file "fixedlen_durable" ".bin" in
  let rm p = try Sys.remove p with Sys_error _ -> () in
  Fun.protect
    ~finally:(fun () ->
      List.iter rm
        [ path; path ^ ".tmp"; path ^ ".quarantine"; path ^ ".quarantine.reason" ])
    (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path content =
  let oc = open_out_bin path in
  output_string oc content;
  close_out oc

(* Checksum: FNV-1a 64 as the spec states it, one byte at a time, and
   the hex spelling every frame and journal carries. *)

let reference_fnv s =
  String.fold_left
    (fun h c ->
      Int64.mul (Int64.logxor h (Int64.of_int (Char.code c))) 0x100000001b3L)
    0xcbf29ce484222325L s

let fnv1a64_matches_fold =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"fnv1a64 matches a byte-by-byte fold" ~count:2000
       QCheck.(
         triple (string_gen_of_size Gen.(int_bound 300) Gen.char) small_nat
           small_nat)
       (fun (s, i, j) ->
         let off = i mod (String.length s + 1) in
         let len = j mod (String.length s - off + 1) in
         Int64.equal (Numerics.Checksum.fnv1a64 s) (reference_fnv s)
         && Int64.equal
              (Numerics.Checksum.fnv1a64_sub s off len)
              (reference_fnv (String.sub s off len))))

let to_hex_matches_printf =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"to_hex matches %016Lx" ~count:2000
       QCheck.(
         make ~print:Int64.to_string
           Gen.(
             oneof
               [
                 map Int64.of_int int;
                 oneofl [ 0L; -1L; Int64.min_int; Int64.max_int; 0xaL ];
                 map2
                   (fun hi lo ->
                     Int64.(logor (shift_left (of_int hi) 32) (of_int lo)))
                   int int;
               ]))
       (fun h ->
         String.equal (Numerics.Checksum.to_hex h) (Printf.sprintf "%016Lx" h)))

(* Framed roundtrip *)

(* Payloads chosen to defeat a parser that trusts content instead of the
   length prefix: newlines, spaces, digit prefixes that look like frame
   headers, emptiness. *)
let nasty_payloads =
  [
    "plain";
    "";
    "with several spaces";
    "multi\nline\npayload";
    "7 digits leading like a frame";
    "trailing newline\n";
    "tab\tand\rcarriage";
    String.make 100 'x';
  ]

let test_framed_roundtrip () =
  with_temp (fun path ->
      let w = D.Framed.create ~point:"t" ~path ~header:"# store v1" () in
      List.iter (D.Framed.append w) nasty_payloads;
      D.Framed.close w;
      let s = D.Framed.scan ~path in
      Alcotest.(check (option string)) "header" (Some "# store v1")
        s.D.Framed.header;
      Alcotest.(check (option (pair int string))) "clean tail" None
        s.D.Framed.tail_error;
      Alcotest.(check (list string)) "payloads survive verbatim"
        nasty_payloads
        (List.map snd s.D.Framed.records))

(* The frame, built by blits, is exactly the [Printf] spelling of the
   record format, the empty payload included. *)
let printf_frame p =
  Printf.sprintf "%d %s %016Lx\n" (String.length p) p
    (Numerics.Checksum.fnv1a64 p)

let frame_matches_printf =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"frame matches the printf spelling" ~count:2000
       QCheck.(
         make ~print:String.escaped
           Gen.(
             oneof
               [
                 oneofl nasty_payloads;
                 string_size ~gen:char (int_bound 300);
                 map
                   (fun n -> String.make n 'x')
                   (oneofl [ 9; 10; 99; 100; 10_000 ]);
               ]))
       (fun p ->
         String.equal (D.Framed.frame p) (printf_frame p)
         && D.Framed.frame_length p = String.length (printf_frame p)))

(* The scan and the wire share one record check: a record whose length
   prefix has a leading zero is bytes [frame] never writes, so the scan
   stops there too. *)
let test_scan_refuses_noncanonical_length () =
  with_temp (fun path ->
      let good = D.Framed.frame "ok" and seven = D.Framed.frame "payload" in
      write_file path ("# store v1\n" ^ good ^ "0" ^ seven);
      let s = D.Framed.scan ~path in
      Alcotest.(check (list string)) "records before it" [ "ok" ]
        (List.map snd s.D.Framed.records);
      Alcotest.(check (option (pair int string)))
        "stops at the leading zero"
        (Some (11 + String.length good, "torn or malformed length prefix"))
        s.D.Framed.tail_error)

let test_framed_append_reopen () =
  with_temp (fun path ->
      let w = D.Framed.create ~point:"t" ~path ~header:"# store v1" () in
      D.Framed.append w "one";
      D.Framed.close w;
      let s = D.Framed.scan ~path in
      let w =
        D.Framed.open_append ~point:"t" ~path ~keep:s.D.Framed.length ()
      in
      D.Framed.append w "two";
      D.Framed.close w;
      let s = D.Framed.scan ~path in
      Alcotest.(check (list string)) "both records" [ "one"; "two" ]
        (List.map snd s.D.Framed.records))

(* The truncation property (satellite: property-style test). For several
   random record sequences, cut the store at every byte offset: the scan
   must recover exactly the records whose frames are complete before the
   cut, flag a tail error iff the cut is mid-frame, and never raise. *)

let test_truncation_property () =
  let st = Random.State.make [| 0xD00D |] in
  with_temp (fun path ->
      with_temp (fun cut_path ->
          for _seq_no = 1 to 6 do
            let n_records = 1 + Random.State.int st 6 in
            let payloads =
              List.init n_records (fun _ ->
                  String.init
                    (Random.State.int st 40)
                    (fun _ -> Char.chr (Random.State.int st 256)))
            in
            let header = "# trunc-prop v1" in
            let w = D.Framed.create ~point:"t" ~path ~header () in
            List.iter (D.Framed.append w) payloads;
            D.Framed.close w;
            let content = read_file path in
            (* Byte offset where each record's frame ends. *)
            let header_end = String.length header + 1 in
            let boundaries =
              List.rev
                (List.fold_left
                   (fun acc p ->
                     let last = List.hd acc in
                     (last + String.length (D.Framed.frame p)) :: acc)
                   [ header_end ] payloads)
            in
            for cut = 0 to String.length content do
              write_file cut_path (String.sub content 0 cut);
              let s = D.Framed.scan ~path:cut_path in
              let expected_n =
                (* boundaries = header_end :: frame ends; record i is
                   intact iff its end offset fits inside the cut. *)
                List.length (List.filter (fun b -> b <= cut) (List.tl boundaries))
              in
              let expected =
                List.filteri (fun i _ -> i < expected_n) payloads
              in
              Alcotest.(check (list string))
                (Printf.sprintf "cut at %d recovers the intact prefix" cut)
                expected
                (List.map snd s.D.Framed.records);
              if cut >= header_end then begin
                let at_boundary = List.mem cut boundaries in
                Alcotest.(check bool)
                  (Printf.sprintf "cut at %d flags damage iff mid-frame" cut)
                  (not at_boundary)
                  (s.D.Framed.tail_error <> None)
              end
            done
          done))

(* Atomic publish *)

let test_write_atomic_publishes () =
  with_temp (fun path ->
      D.write_atomic ~path "first version\n";
      Alcotest.(check string) "published" "first version\n" (read_file path);
      D.write_atomic ~path "second version\n";
      Alcotest.(check string) "replaced" "second version\n" (read_file path);
      Alcotest.(check bool) "no temp file left" false
        (Sys.file_exists (path ^ ".tmp")))

let test_write_atomic_failure_keeps_previous () =
  with_temp (fun path ->
      D.write_atomic ~path "good";
      let chaos = Chaos_fs.create ~error_rate:1.0 ~seed:5L () in
      (match D.write_atomic ~chaos ~path "never lands" with
      | () -> Alcotest.fail "injected write error did not surface"
      | exception Unix.Unix_error ((Unix.EIO | Unix.ENOSPC), _, _) -> ());
      Alcotest.(check string) "previous content intact" "good"
        (read_file path);
      Alcotest.(check bool) "failed temp removed" false
        (Sys.file_exists (path ^ ".tmp")))

(* Chaos_fs: short writes must be transparent (the write loop finishes
   the rest), errors must repair the store, plans must be deterministic. *)

let test_short_writes_transparent () =
  with_temp (fun path ->
      let reference = with_temp (fun p2 ->
          let w = D.Framed.create ~point:"t" ~path:p2 ~header:"# h" () in
          List.iter (D.Framed.append w) nasty_payloads;
          D.Framed.close w;
          read_file p2)
      in
      let chaos = Chaos_fs.create ~short_write_rate:1.0 ~seed:7L () in
      let w = D.Framed.create ~chaos ~point:"t" ~path ~header:"# h" () in
      List.iter (D.Framed.append w) nasty_payloads;
      D.Framed.close w;
      Alcotest.(check bool) "short writes actually struck" true
        (Chaos_fs.injected_short_writes chaos > 0);
      Alcotest.(check string) "byte-identical under short writes" reference
        (read_file path))

let test_failed_append_repairs_store () =
  with_temp (fun path ->
      let w = D.Framed.create ~point:"t" ~path ~header:"# h" () in
      D.Framed.append w "one";
      D.Framed.append w "two";
      D.Framed.close w;
      let clean = read_file path in
      let chaos = Chaos_fs.create ~error_rate:1.0 ~seed:11L () in
      let w =
        D.Framed.open_append ~chaos ~point:"t" ~path
          ~keep:(String.length clean) ()
      in
      (match D.Framed.append w "three" with
      | () -> Alcotest.fail "injected append error did not surface"
      | exception Unix.Unix_error ((Unix.EIO | Unix.ENOSPC), _, _) -> ());
      D.Framed.close w;
      Alcotest.(check bool) "error was injected" true
        (Chaos_fs.injected_errors chaos > 0);
      (* The failed append wrote a prefix, then repair truncated it away:
         the store is byte-identical to before and cleanly appendable. *)
      Alcotest.(check string) "repaired to the record boundary" clean
        (read_file path);
      let w =
        D.Framed.open_append ~point:"t" ~path ~keep:(String.length clean) ()
      in
      D.Framed.append w "three";
      D.Framed.close w;
      let s = D.Framed.scan ~path in
      Alcotest.(check (list string)) "retry lands on a clean tail"
        [ "one"; "two"; "three" ]
        (List.map snd s.D.Framed.records);
      Alcotest.(check (option (pair int string))) "no damage" None
        s.D.Framed.tail_error)

let test_plans_deterministic () =
  let plans_of chaos =
    List.init 50 (fun _ -> Chaos_fs.plan chaos ~point:"p" ~len:100)
  in
  let a = plans_of (Chaos_fs.create ~error_rate:0.4 ~short_write_rate:0.4 ~seed:3L ()) in
  let b = plans_of (Chaos_fs.create ~error_rate:0.4 ~short_write_rate:0.4 ~seed:3L ()) in
  Alcotest.(check bool) "same seed replays the same plans" true (a = b);
  List.iter
    (function
      | Chaos_fs.Write_all -> ()
      | Chaos_fs.Short_write n | Chaos_fs.Fail_after (n, _)
      | Chaos_fs.Crash_after n ->
          if n <= 0 || n >= 100 then
            Alcotest.failf "prefix %d not strictly inside (0, 100)" n)
    a;
  let kinds l =
    List.length (List.filter (function Chaos_fs.Write_all -> false | _ -> true) l)
  in
  Alcotest.(check bool) "rate 0.4 struck some writes" true (kinds a > 0);
  Alcotest.(check bool) "rate 0.4 spared some writes" true (kinds a < 50)

let test_crash_plan_exact_seq () =
  let chaos = Chaos_fs.create ~crash_at:[ ("p", 2) ] ~seed:1L () in
  (* seq 0, 1: untouched; seq 2: the planned crash; seq 3: untouched.
     Other points never crash. *)
  Alcotest.(check bool) "seq 0 clean" true
    (Chaos_fs.plan chaos ~point:"p" ~len:50 = Chaos_fs.Write_all);
  Alcotest.(check bool) "seq 1 clean" true
    (Chaos_fs.plan chaos ~point:"p" ~len:50 = Chaos_fs.Write_all);
  (match Chaos_fs.plan chaos ~point:"p" ~len:50 with
  | Chaos_fs.Crash_after n when n > 0 && n < 50 -> ()
  | p ->
      Alcotest.failf "seq 2 planned %s, wanted a mid-record crash"
        (match p with
        | Chaos_fs.Write_all -> "Write_all"
        | Chaos_fs.Short_write _ -> "Short_write"
        | Chaos_fs.Fail_after _ -> "Fail_after"
        | Chaos_fs.Crash_after n -> Printf.sprintf "Crash_after %d" n));
  Alcotest.(check bool) "seq 3 clean" true
    (Chaos_fs.plan chaos ~point:"p" ~len:50 = Chaos_fs.Write_all);
  Alcotest.(check bool) "other points untouched" true
    (Chaos_fs.plan chaos ~point:"q" ~len:50 = Chaos_fs.Write_all)

let test_chaos_fs_validation () =
  List.iter
    (fun thunk ->
      match thunk () with
      | (_ : Chaos_fs.t) -> Alcotest.fail "invalid config accepted"
      | exception Invalid_argument _ -> ())
    [
      (fun () -> Chaos_fs.create ~error_rate:1.5 ~seed:0L ());
      (fun () -> Chaos_fs.create ~short_write_rate:(-0.1) ~seed:0L ());
      (fun () -> Chaos_fs.create ~crash_at:[ ("", 0) ] ~seed:0L ());
      (fun () -> Chaos_fs.create ~crash_at:[ ("p", -1) ] ~seed:0L ());
    ]

let test_parse_crash_at () =
  let pt = Alcotest.(option (pair string int)) in
  Alcotest.check pt "well-formed" (Some ("journal", 5))
    (Chaos_fs.parse_crash_at "journal:5");
  Alcotest.check pt "colon in point name" (Some ("a:b", 3))
    (Chaos_fs.parse_crash_at "a:b:3");
  Alcotest.check pt "no colon" None (Chaos_fs.parse_crash_at "journal");
  Alcotest.check pt "empty point" None (Chaos_fs.parse_crash_at ":5");
  Alcotest.check pt "non-numeric seq" None (Chaos_fs.parse_crash_at "p:x");
  Alcotest.check pt "negative seq" None (Chaos_fs.parse_crash_at "p:-1")

(* Quarantine *)

let test_quarantine_moves_and_explains () =
  with_temp (fun path ->
      write_file path "sick bytes";
      let qpath = D.quarantine ~path ~reason:"header checksum blew up" in
      Alcotest.(check string) "returned path" (path ^ ".quarantine") qpath;
      Alcotest.(check bool) "original gone" false (Sys.file_exists path);
      Alcotest.(check string) "content preserved" "sick bytes"
        (read_file qpath);
      let sidecar = read_file (qpath ^ ".reason") in
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i =
          i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
        in
        nn = 0 || go 0
      in
      Alcotest.(check bool) "sidecar names the file" true
        (contains sidecar path);
      Alcotest.(check bool) "sidecar carries the reason" true
        (contains sidecar "header checksum blew up"))

let () =
  Alcotest.run "durable"
    [
      ( "framed",
        [
          Alcotest.test_case "nasty payload roundtrip" `Quick
            test_framed_roundtrip;
          Alcotest.test_case "append after reopen" `Quick
            test_framed_append_reopen;
          Alcotest.test_case "recovery under every truncation offset" `Quick
            test_truncation_property;
          frame_matches_printf;
          Alcotest.test_case "scan refuses a non-canonical length" `Quick
            test_scan_refuses_noncanonical_length;
        ] );
      ("checksum", [ fnv1a64_matches_fold; to_hex_matches_printf ]);
      ( "atomic publish",
        [
          Alcotest.test_case "publishes and replaces" `Quick
            test_write_atomic_publishes;
          Alcotest.test_case "failure keeps previous version" `Quick
            test_write_atomic_failure_keeps_previous;
        ] );
      ( "chaos_fs",
        [
          Alcotest.test_case "short writes transparent" `Quick
            test_short_writes_transparent;
          Alcotest.test_case "failed append repairs the store" `Quick
            test_failed_append_repairs_store;
          Alcotest.test_case "plans deterministic, prefixes torn" `Quick
            test_plans_deterministic;
          Alcotest.test_case "crash plan strikes its exact seq" `Quick
            test_crash_plan_exact_seq;
          Alcotest.test_case "validation" `Quick test_chaos_fs_validation;
          Alcotest.test_case "parse_crash_at" `Quick test_parse_crash_at;
        ] );
      ( "quarantine",
        [
          Alcotest.test_case "moves the file and explains why" `Quick
            test_quarantine_moves_and_explains;
        ] );
    ]
