(* Byte accounting of the flat DP tables (Core.Tables and the [bytes]
   accessors of the table-building cores). The LRU cache charges
   memory through these numbers, so the arithmetic is pinned exactly —
   a silent change here silently re-sizes every bounded cache. *)

module Tables = Core.Tables

let test_f_bytes () =
  let t = Tables.F.create ~rows:3 ~cols:5 in
  Alcotest.(check int) "F bytes = 8*rows*cols" 120 (Tables.F.bytes t);
  Alcotest.(check int) "F words = rows*cols" 15 (Tables.F.words t)

let test_i_bytes_width_selection () =
  let small = Tables.I.create ~rows:3 ~cols:5 ~max_value:100 in
  Alcotest.(check int) "int16 cell" 2 (Tables.I.bytes_per_cell small);
  Alcotest.(check int) "int16 bytes" 30 (Tables.I.bytes small);
  let big = Tables.I.create ~rows:3 ~cols:5 ~max_value:40_000 in
  Alcotest.(check int) "int32 cell" 4 (Tables.I.bytes_per_cell big);
  Alcotest.(check int) "int32 bytes" 60 (Tables.I.bytes big);
  (* the boundary value still fits in int16 *)
  let edge = Tables.I.create ~rows:1 ~cols:1 ~max_value:32767 in
  Alcotest.(check int) "32767 is int16" 2 (Tables.I.bytes edge)

let test_tri_bytes () =
  (* side = 4: rows hold 5+4+3+2+1 = 15 cells *)
  let t = Tables.Tri.create ~side:4 in
  Alcotest.(check int) "Tri bytes = 8*cells" 120 (Tables.Tri.bytes t);
  let it = Tables.Itri.create ~side:4 ~max_value:100 in
  Alcotest.(check int) "Itri int16 bytes = 2*cells" 30 (Tables.Itri.bytes it);
  let it32 = Tables.Itri.create ~side:4 ~max_value:100_000 in
  Alcotest.(check int) "Itri int32 bytes = 4*cells" 60 (Tables.Itri.bytes it32)

(* The cores' [bytes] must equal the sum of their declared buffers:
   these are the exact formulas the builds allocate with, restated. *)

let params = Fault.Params.paper ~lambda:0.01 ~c:5.0 ~d:0.0

let test_dp_bytes () =
  let dp = Core.Dp.build ~params ~quantum:1.0 ~horizon:50.0 () in
  let cols = Core.Dp.horizon_quanta dp + 1 in
  let rows = Core.Dp.kmax dp + 1 in
  (* e0 + e1 (Float64) + ib0 + ib1 + argm1 (all int16 at this size) +
     the bestk0 row of native ints *)
  let expect = (2 * 8 * rows * cols) + (3 * 2 * rows * cols) + (8 * cols) in
  Alcotest.(check int) "Dp.bytes matches its buffers" expect (Core.Dp.bytes dp)

let test_optimal_bytes () =
  let opt = Core.Optimal.build ~params ~quantum:1.0 ~horizon:50.0 () in
  let cols = Core.Optimal.horizon_quanta opt + 1 in
  (* v0, v1, i0, i1 (native words) and the plan-length row (int16 at
     this size) *)
  Alcotest.(check int) "Optimal.bytes = 4 word rows + 1 int16 row"
    ((8 * 4 * cols) + (2 * cols))
    (Core.Optimal.bytes opt)

let test_renewal_bytes () =
  let dist = Fault.Trace.Exponential { rate = 0.01 } in
  let t = Core.Dp_renewal.build ~params ~dist ~quantum:1.0 ~horizon:30.0 () in
  let tstar = Core.Dp_renewal.horizon_quanta t in
  let cells = (tstar + 1) * (tstar + 2) / 2 in
  let expect = (8 * cells) + (2 * cells) + (2 * 8 * (tstar + 1)) in
  Alcotest.(check int) "Dp_renewal.bytes matches its buffers" expect
    (Core.Dp_renewal.bytes t)

let () =
  Alcotest.run "tables"
    [
      ( "bytes",
        [
          Alcotest.test_case "F" `Quick test_f_bytes;
          Alcotest.test_case "I width selection" `Quick
            test_i_bytes_width_selection;
          Alcotest.test_case "Tri/Itri" `Quick test_tri_bytes;
          Alcotest.test_case "Dp" `Quick test_dp_bytes;
          Alcotest.test_case "Optimal" `Quick test_optimal_bytes;
          Alcotest.test_case "Dp_renewal" `Quick test_renewal_bytes;
        ] );
    ]
