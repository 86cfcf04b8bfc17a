(* Tests for Nxc_crossbar: diode and FET crossbars and the metrics
   estimates, including the paper's Fig. 3 worked example. *)

open Nxc_logic
open Nxc_crossbar
module U = Testutil
module Tt = Truth_table

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)


(* a random non-constant function *)
let arb_nonconst n =
  QCheck.map
    ~rev:(fun f -> Boolfunc.table f)
    (fun tt ->
      match Tt.is_const tt with
      | None -> Boolfunc.make tt
      | Some _ -> Boolfunc.make (Testutil.tt_var n 0))
    (U.arb_table n)

let model_tests =
  [
    Alcotest.test_case "placement validation" `Quick (fun () ->
        Alcotest.check_raises "ragged"
          (Invalid_argument "Model.placement_of_matrix: ragged rows") (fun () ->
            ignore
              (Model.placement_of_matrix [| [| true |]; [| true; false |] |]));
        let p = Model.placement_of_matrix [| [| true; false |]; [| true; true |] |] in
        check_int "programmed" 3 (Model.programmed p);
        check "dims" true (p.Model.dims = { Model.rows = 2; cols = 2 }));
  ]

let diode_tests =
  [
    Alcotest.test_case "paper example: xnor is 2x5" `Quick (fun () ->
        (* f = x1x2 + x1'x2': 4 literals and 2 products -> 2 x 5 *)
        let f = Parse.expr "x1x2 + x1'x2'" in
        let d = Diode.size_formula f in
        check_int "rows" 2 d.Model.rows;
        check_int "cols" 5 d.Model.cols;
        let x = Diode.synthesize f in
        check_int "rows" 2 (Diode.dims x).Model.rows;
        check_int "cols" 5 (Diode.dims x).Model.cols;
        (* diodes: one per literal occurrence (4) plus one per product (2) *)
        check_int "programmed" 6 (Model.programmed (Diode.placement x)));
    Alcotest.test_case "constant rejected" `Quick (fun () ->
        check "raises" true
          (match Diode.synthesize (Boolfunc.of_fun_int 2 (fun _ -> true)) with
          | exception Invalid_argument _ -> true
          | _ -> false));
    Alcotest.test_case "row_value is the product" `Quick (fun () ->
        (* each row alone, as a one-product crossbar, is the wired-AND
           of its literals: it computes its product *)
        let f = Parse.expr "x1x2 + x1'x2'" in
        let x = Diode.synthesize f in
        let rows = Cover.cubes (Diode.cover x) in
        check_int "two rows" 2 (List.length rows);
        List.iter
          (fun cube ->
            let row = Diode.of_cover (Cover.make 2 [ cube ]) in
            for m = 0 to 3 do
              check "row = product" (Cube.eval_int cube m) (Diode.eval_int row m)
            done)
          rows;
        check "exactly one row high at 11" true
          (List.length (List.filter (fun c -> Cube.eval_int c 0b11) rows) = 1));
    U.qtest ~count:200 "diode crossbar computes f" (arb_nonconst 4) (fun f ->
        match Boolfunc.is_const f with
        | Some _ -> true
        | None ->
            let x = Diode.synthesize f in
            let rec go m =
              m >= 16 || (Diode.eval_int x m = Boolfunc.eval_int f m && go (m + 1))
            in
            go 0);
    U.qtest ~count:60 "diode crossbar computes f (6 vars, heuristic sop)"
      (arb_nonconst 6) (fun f ->
        match Boolfunc.is_const f with
        | Some _ -> true
        | None ->
            let x = Diode.of_cover (Isop.isop (Boolfunc.table f)) in
            let rec go m =
              m >= 64 || (Diode.eval_int x m = Boolfunc.eval_int f m && go (m + 1))
            in
            go 0);
    U.qtest ~count:100 "size formula matches built dims" (arb_nonconst 4)
      (fun f ->
        match Boolfunc.is_const f with
        | Some _ -> true
        | None -> Diode.size_formula f = Diode.dims (Diode.synthesize f));
    U.qtest ~count:100 "programmed = total literals + products" (arb_nonconst 4)
      (fun f ->
        match Boolfunc.is_const f with
        | Some _ -> true
        | None ->
            let x = Diode.synthesize f in
            let c = Diode.cover x in
            Model.programmed (Diode.placement x)
            = List.fold_left (fun n cube -> n + List.length (Cube.literals cube)) 0
                (Cover.cubes c)
              + Cover.num_cubes c);
  ]

(* the "(u pull-up + d pull-down)" header [Fet.pp] prints *)
let networks x =
  let s = Format.asprintf "%a" Fet.pp x in
  Scanf.sscanf s "fet crossbar %_dx%_d (%d pull-up + %d pull-down)" (fun u d ->
      (u, d))

(* every assignment evaluated: [Fet.eval_int] asserts that exactly one
   network conducts *)
let complementary x n =
  match List.init (1 lsl n) (Fet.eval_int x) with
  | _ -> true
  | exception Assert_failure _ -> false

let fet_tests =
  [
    Alcotest.test_case "paper example: xnor is 4x4" `Quick (fun () ->
        (* f has 4 literals, 2 products; fD has 2 products -> 4 x 4 *)
        let f = Parse.expr "x1x2 + x1'x2'" in
        let d = Fet.size_formula f in
        check_int "rows" 4 d.Model.rows;
        check_int "cols" 4 d.Model.cols;
        let x = Fet.synthesize f in
        check "pull-up + pull-down columns" true (networks x = (2, 2));
        check "complementary" true (complementary x 2));
    Alcotest.test_case "constant rejected" `Quick (fun () ->
        check "raises" true
          (match Fet.synthesize (Boolfunc.of_fun_int 2 (fun _ -> false)) with
          | exception Invalid_argument _ -> true
          | _ -> false));
    Alcotest.test_case "AND gate structure" `Quick (fun () ->
        (* f = x1x2: pull-up 1 column (x1,x2); dual x1+x2: two pull-down
           columns gated by x1', x2' *)
        let x = Fet.synthesize (Parse.expr "x1x2") in
        check "pull-up, pull-down" true (networks x = (1, 2));
        check "eval 11" true (Fet.eval_int x 0b11);
        check "eval 01" false (Fet.eval_int x 0b01));
    U.qtest ~count:200 "fet crossbar computes f" (arb_nonconst 4) (fun f ->
        match Boolfunc.is_const f with
        | Some _ -> true
        | None ->
            let x = Fet.synthesize f in
            let rec go m =
              m >= 16 || (Fet.eval_int x m = Boolfunc.eval_int f m && go (m + 1))
            in
            go 0);
    U.qtest ~count:200 "networks are always complementary" (arb_nonconst 5)
      (fun f ->
        match Boolfunc.is_const f with
        | Some _ -> true
        | None -> complementary (Fet.synthesize f) 5);
    U.qtest ~count:100 "size formula row count can exceed literals of f only"
      (arb_nonconst 4)
      (fun f ->
        match Boolfunc.is_const f with
        | Some _ -> true
        | None ->
            let x = Fet.synthesize f in
            let d = Fet.dims x in
            let up, down = networks x in
            Fet.size_formula f = d && d.Model.cols = up + down);
  ]

let metrics_tests =
  [
    Alcotest.test_case "diode report" `Quick (fun () ->
        let x = Diode.synthesize (Parse.expr "x1x2 + x1'x2'") in
        let r = Metrics.diode x in
        check_int "crosspoints" 10 r.Metrics.crosspoints;
        check_int "programmed" 6 r.Metrics.programmed;
        check "area positive" true (r.Metrics.area_nm2 > 0.0);
        check "area = rows*cols*pitch^2" true
          (abs_float (r.Metrics.area_nm2 -. (2.0 *. 10.0 *. 5.0 *. 10.0)) < 1e-6));
    Alcotest.test_case "fet path length is the longest chain" `Quick (fun () ->
        let x = Fet.synthesize (Parse.expr "x1x2x3") in
        let r = Metrics.fet x in
        (* pull-up chain has 3 series devices *)
        check "delay = 3 * unit" true
          (abs_float (r.Metrics.delay_ps -. (3.0 *. 8.0)) < 1e-6));
    U.qtest ~count:60 "area grows with the grid" (arb_nonconst 4) (fun f ->
        match Boolfunc.is_const f with
        | Some _ -> true
        | None ->
            let r = Metrics.diode (Diode.synthesize f) in
            r.Metrics.area_nm2 >= 100.0 (* at least one 10nm x 10nm cell *)
            && r.Metrics.programmed <= r.Metrics.crosspoints);
  ]

let () =
  Alcotest.run "crossbar"
    [
      ("model", model_tests);
      ("diode", diode_tests);
      ("fet", fet_tests);
      ("metrics", metrics_tests);
    ]
