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
      | Some _ -> Boolfunc.make (Tt.var n 0))
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
        check_int "crosspoints" 4 (Model.crosspoints p.Model.dims));
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
        let f = Parse.expr "x1x2 + x1'x2'" in
        let x = Diode.synthesize f in
        (* one of the rows is x1x2 *)
        let row_funs = [ Diode.row_value x 0b11 0; Diode.row_value x 0b11 1 ] in
        check "exactly one row high at 11" true
          (List.length (List.filter Fun.id row_funs) = 1));
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
            = Cover.num_literals c + Cover.num_cubes c);
  ]

let fet_tests =
  [
    Alcotest.test_case "paper example: xnor is 4x4" `Quick (fun () ->
        (* f has 4 literals, 2 products; fD has 2 products -> 4 x 4 *)
        let f = Parse.expr "x1x2 + x1'x2'" in
        let d = Fet.size_formula f in
        check_int "rows" 4 d.Model.rows;
        check_int "cols" 4 d.Model.cols;
        let x = Fet.synthesize f in
        check_int "pull-up columns" 2 (Fet.num_pullup x);
        check_int "pull-down columns" 2 (Fet.num_pulldown x);
        check "complementary" true (Fet.is_complementary x));
    Alcotest.test_case "constant rejected" `Quick (fun () ->
        check "raises" true
          (match Fet.synthesize (Boolfunc.of_fun_int 2 (fun _ -> false)) with
          | exception Invalid_argument _ -> true
          | _ -> false));
    Alcotest.test_case "AND gate structure" `Quick (fun () ->
        (* f = x1x2: pull-up 1 column (x1,x2); dual x1+x2: two pull-down
           columns gated by x1', x2' *)
        let x = Fet.synthesize (Parse.expr "x1x2") in
        check_int "pull-up" 1 (Fet.num_pullup x);
        check_int "pull-down" 2 (Fet.num_pulldown x);
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
        | None -> Fet.is_complementary (Fet.synthesize f));
    U.qtest ~count:100 "size formula row count can exceed literals of f only"
      (arb_nonconst 4)
      (fun f ->
        match Boolfunc.is_const f with
        | Some _ -> true
        | None ->
            let x = Fet.synthesize f in
            let d = Fet.dims x in
            Array.length (Fet.row_literals x) = d.Model.rows
            && d.Model.cols = Fet.num_pullup x + Fet.num_pulldown x);
  ]

(* word-parallel kernels vs the scalar evaluators *)
let kernel_tests =
  let vectors_of n ms =
    Array.of_list
      (List.map (fun m -> Array.init n (fun i -> m land (1 lsl i) <> 0)) ms)
  in
  [
    U.qtest ~count:150 "diode eval_all ≡ scalar eval" (arb_nonconst 4) (fun f ->
        match Boolfunc.is_const f with
        | Some _ -> true
        | None ->
            let x = Diode.synthesize f in
            Tt.equal (Diode.eval_all x)
              (Tt.of_fun_int 4 (Diode.eval_int x)));
    U.qtest ~count:30 "diode eval_all ≡ scalar eval (8 vars, heuristic sop)"
      (arb_nonconst 8) (fun f ->
        match Boolfunc.is_const f with
        | Some _ -> true
        | None ->
            let x = Diode.of_cover (Isop.isop (Boolfunc.table f)) in
            Tt.equal (Diode.eval_all x)
              (Tt.of_fun_int 8 (Diode.eval_int x)));
    Alcotest.test_case "diode eval_all on a 1xk crossbar" `Quick (fun () ->
        (* a single product occupies one row *)
        let x = Diode.synthesize (Parse.expr "x1x2'x3") in
        check_int "one row" 1 (Diode.dims x).Model.rows;
        check "kernel matches" true
          (Tt.equal (Diode.eval_all x) (Tt.of_fun_int 3 (Diode.eval_int x))));
    U.qtest ~count:100 "diode eval_vectors ≡ eval"
      QCheck.(pair (arb_nonconst 4) (list (int_bound 15)))
      (fun (f, ms) ->
        match Boolfunc.is_const f with
        | Some _ -> true
        | None ->
            let x = Diode.synthesize f in
            let vecs = vectors_of 4 ms in
            let bv = Diode.eval_vectors x vecs in
            Bitvec.length bv = Array.length vecs
            && Array.for_all Fun.id
                 (Array.mapi (fun j v -> Bitvec.get bv j = Diode.eval x v) vecs));
    U.qtest ~count:150 "fet eval_all ≡ scalar eval" (arb_nonconst 4) (fun f ->
        match Boolfunc.is_const f with
        | Some _ -> true
        | None ->
            let x = Fet.synthesize f in
            Tt.equal (Fet.eval_all x) (Tt.of_fun_int 4 (Fet.eval_int x)));
    U.qtest ~count:30 "fet eval_all ≡ scalar eval (6 vars, heuristic sop)"
      (arb_nonconst 6) (fun f ->
        match Boolfunc.is_const f with
        | Some _ -> true
        | None ->
            let x =
              Fet.of_covers ~n:6
                ~f_cover:(Isop.isop (Boolfunc.table f))
                ~dual_cover:(Isop.isop (Boolfunc.table (Boolfunc.dual f)))
            in
            Tt.equal (Fet.eval_all x) (Tt.of_fun_int 6 (Fet.eval_int x)));
    U.qtest ~count:100 "fet eval_vectors ≡ eval"
      QCheck.(pair (arb_nonconst 4) (list (int_bound 15)))
      (fun (f, ms) ->
        match Boolfunc.is_const f with
        | Some _ -> true
        | None ->
            let x = Fet.synthesize f in
            let vecs = vectors_of 4 ms in
            let bv = Fet.eval_vectors x vecs in
            Bitvec.length bv = Array.length vecs
            && Array.for_all Fun.id
                 (Array.mapi (fun j v -> Bitvec.get bv j = Fet.eval x v) vecs));
    Alcotest.test_case "scratch is stateless across interleaved shapes" `Quick
      (fun () ->
        (* one scratch threaded through crossbars of different arities
           and dimensions must give the same tables as fresh scratches *)
        let fs =
          List.map Parse.expr
            [ "x1x2 + x1'x2'"; "x1x2'x3"; "x1 ^ x2 ^ x3 ^ x4"; "x1 + x2x3" ]
        in
        let s = Model.scratch () in
        List.iter
          (fun f ->
            let d = Diode.synthesize f and t = Fet.synthesize f in
            let expect_d = Diode.eval_all d and expect_t = Fet.eval_all t in
            check "diode, shared scratch" true
              (Tt.equal (Diode.eval_all ~scratch:s d) expect_d);
            check "fet, shared scratch" true
              (Tt.equal (Fet.eval_all ~scratch:s t) expect_t))
          fs;
        (* and again in reverse order, reusing the grown buffers *)
        List.iter
          (fun f ->
            let d = Diode.synthesize f in
            check "diode, reused scratch" true
              (Tt.equal (Diode.eval_all ~scratch:s d) (Diode.eval_all d)))
          (List.rev fs));
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
      ("kernels", kernel_tests);
      ("metrics", metrics_tests);
    ]
