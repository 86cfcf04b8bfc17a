(* Tests for Nxc_lattice: connectivity evaluation, Altun-Riedel
   synthesis, composition rules, decomposition- and D-reduction-based
   synthesis, and the brute-force optimal search. *)

open Nxc_logic
open Nxc_lattice
module U = Testutil
module Tt = Truth_table

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let lit v = Lattice.Lit (v, Cube.Pos)
let lit' v = Lattice.Lit (v, Cube.Neg)

let arb_func n =
  QCheck.map ~rev:Boolfunc.table Boolfunc.make (U.arb_table n)

(* ------------------------------------------------------------------ *)
(* Lattice evaluation                                                  *)
(* ------------------------------------------------------------------ *)

let eval_tests =
  [
    Alcotest.test_case "single literal site" `Quick (fun () ->
        let l = Lattice.make ~n_vars:2 [| [| lit 0 |] |] in
        check "x1 true" true (Lattice.eval_int l 0b01);
        check "x1 false" false (Lattice.eval_int l 0b10));
    Alcotest.test_case "constant sites" `Quick (fun () ->
        let z = Lattice.make ~n_vars:1 [| [| Lattice.Zero |] |] in
        let o = Lattice.make ~n_vars:1 [| [| Lattice.One |] |] in
        check "zero" false (Lattice.eval_int z 0);
        check "one" true (Lattice.eval_int o 1));
    Alcotest.test_case "column is AND" `Quick (fun () ->
        let l = Lattice.make ~n_vars:2 [| [| lit 0 |]; [| lit 1 |] |] in
        check "11" true (Lattice.eval_int l 0b11);
        check "01" false (Lattice.eval_int l 0b10);
        check "10" false (Lattice.eval_int l 0b01));
    Alcotest.test_case "row is OR" `Quick (fun () ->
        let l = Lattice.make ~n_vars:2 [| [| lit 0; lit 1 |] |] in
        check "10" true (Lattice.eval_int l 0b01);
        check "01" true (Lattice.eval_int l 0b10);
        check "00" false (Lattice.eval_int l 0b00));
    Alcotest.test_case "zero column blocks horizontal crossing" `Quick (fun () ->
        (* [x1 0 x2] over two rows [x2 0 x1]: paths stay in their side *)
        let l =
          Lattice.make ~n_vars:2
            [| [| lit 0; Lattice.Zero; lit 1 |];
               [| lit 1; Lattice.Zero; lit 0 |] |]
        in
        check "x1x2 conducts" true (Lattice.eval_int l 0b11);
        check "x1 alone does not" false (Lattice.eval_int l 0b01));
    Alcotest.test_case "winding path counts" `Quick (fun () ->
        (* conducting sites form an S shape *)
        let l =
          Lattice.make ~n_vars:1
            [| [| Lattice.One; Lattice.Zero |];
               [| Lattice.One; Lattice.One |];
               [| Lattice.Zero; Lattice.One |] |]
        in
        check "snake conducts" true (Lattice.eval_int l 0));
    Alcotest.test_case "ragged grid rejected" `Quick (fun () ->
        Alcotest.check_raises "ragged" (Invalid_argument "Lattice.make: ragged rows")
          (fun () ->
            ignore (Lattice.make ~n_vars:1 [| [| lit 0 |]; [| lit 0; lit 0 |] |])));
    Alcotest.test_case "paper Fig. 4 lattice computes its function" `Quick
      (fun () ->
        let f, l = Altun_riedel.paper_example () in
        check_int "3 rows" 3 (Lattice.rows l);
        check_int "2 cols" 2 (Lattice.cols l);
        check "equivalent" true (Checker.equivalent l f));
    Alcotest.test_case "transpose swaps dimensions and evals" `Quick (fun () ->
        let l =
          Lattice.make ~n_vars:2 [| [| lit 0; lit' 1 |]; [| lit 1; lit 0 |] |]
        in
        let t = Lattice.transpose l in
        check_int "rows" 2 (Lattice.rows t);
        for m = 0 to 3 do
          check "transpose eval_lr = eval top-bottom" (Lattice.eval_int l m)
            (Nxc_oracle.Lattice_ref.eval_lr t m)
        done);
  ]

(* ------------------------------------------------------------------ *)
(* Altun-Riedel synthesis                                              *)
(* ------------------------------------------------------------------ *)

let ar_tests =
  [
    Alcotest.test_case "paper's 2x2 example (xnor)" `Quick (fun () ->
        let f = Parse.expr "x1x2 + x1'x2'" in
        let r, c = Altun_riedel.size_formula f in
        check_int "rows = products of dual" 2 r;
        check_int "cols = products of f" 2 c;
        let l = Altun_riedel.synthesize f in
        check_int "area 4" 4 (Lattice.area l);
        check "equivalent" true (Checker.equivalent l f));
    Alcotest.test_case "constants" `Quick (fun () ->
        let c0 = Altun_riedel.synthesize (Boolfunc.of_fun_int 3 (fun _ -> false)) in
        let c1 = Altun_riedel.synthesize (Boolfunc.of_fun_int 3 (fun _ -> true)) in
        check_int "area 1" 1 (Lattice.area c0);
        check "zero" false (Lattice.eval_int c0 5);
        check "one" true (Lattice.eval_int c1 5));
    Alcotest.test_case "single product becomes a column" `Quick (fun () ->
        let f = Parse.expr "x1x2x3" in
        let l = Altun_riedel.synthesize f in
        check_int "cols" 1 (Lattice.cols l);
        check_int "rows" 3 (Lattice.rows l);
        check "equivalent" true (Checker.equivalent l f));
    Alcotest.test_case "single literal" `Quick (fun () ->
        let f = Parse.expr "x2" in
        let l = Altun_riedel.synthesize f in
        check_int "area 1" 1 (Lattice.area l);
        check "equivalent" true (Checker.equivalent l f));
    U.qtest ~count:250 "synthesized lattice computes f" (arb_func 4) (fun f ->
        Checker.equivalent (Altun_riedel.synthesize f) f);
    U.qtest ~count:100 "synthesized lattice computes f (5 vars)" (arb_func 5)
      (fun f -> Checker.equivalent (Altun_riedel.synthesize f) f);
    U.qtest ~count:100 "lattice computes the dual left-to-right" (arb_func 4)
      (fun f ->
        match Boolfunc.is_const f with
        | Some _ -> true
        | None -> Checker.computes_dual_lr (Altun_riedel.synthesize f) f);
    U.qtest ~count:100 "size matches the Fig. 5 formula" (arb_func 4) (fun f ->
        let l = Altun_riedel.synthesize f in
        let r, c = Altun_riedel.size_formula f in
        Lattice.rows l = r && Lattice.cols l = c);
    U.qtest ~count:60 "synthesis from ISOP covers also works" (arb_func 5)
      (fun f ->
        match Boolfunc.is_const f with
        | Some _ -> true
        | None ->
            let fc = Isop.isop (Boolfunc.table f) in
            let dc = Isop.isop (Tt.dual (Boolfunc.table f)) in
            let l =
              Altun_riedel.synthesize_from_covers ~n:5 ~f_cover:fc ~dual_cover:dc
            in
            Checker.equivalent l f);
  ]

(* ------------------------------------------------------------------ *)
(* Composition                                                         *)
(* ------------------------------------------------------------------ *)

let compose_tests =
  [
    Alcotest.test_case "of_cube chains literals" `Quick (fun () ->
        let c = Cube.of_literals 3 [ (0, Pos); (2, Neg) ] in
        let l = Compose.of_cube 3 c in
        check_int "two rows" 2 (Lattice.rows l);
        check "equivalent" true
          (Checker.equivalent l
             (Boolfunc.of_fun_int 3 (fun m -> Cube.eval_int c m))));
    Alcotest.test_case "disjunction sizes" `Quick (fun () ->
        let a = Compose.of_literal 2 0 Pos and b = Compose.of_literal 2 1 Pos in
        let l = Compose.disjunction a b in
        check_int "cols 3" 3 (Lattice.cols l);
        check_int "rows 1" 1 (Lattice.rows l));
    Alcotest.test_case "conjunction sizes" `Quick (fun () ->
        let a = Compose.of_literal 2 0 Pos and b = Compose.of_literal 2 1 Pos in
        let l = Compose.conjunction a b in
        check_int "rows 3" 3 (Lattice.rows l);
        check_int "cols 1" 1 (Lattice.cols l));
    U.qtest ~count:100 "padding rows preserves the function"
      QCheck.(pair (arb_func 4) (int_bound 3))
      (fun (f, extra) ->
        let l = Altun_riedel.synthesize f in
        let padded = Compose.pad_to_rows l (Lattice.rows l + extra) in
        Checker.equivalent padded f);
    U.qtest ~count:100 "padding cols preserves the function"
      QCheck.(pair (arb_func 4) (int_bound 3))
      (fun (f, extra) ->
        let l = Altun_riedel.synthesize f in
        let padded = Compose.pad_to_cols l (Lattice.cols l + extra) in
        Checker.equivalent padded f);
    U.qtest ~count:100 "disjunction computes OR" QCheck.(pair (arb_func 4) (arb_func 4))
      (fun (f, g) ->
        let l = Compose.disjunction (Altun_riedel.synthesize f) (Altun_riedel.synthesize g) in
        Checker.equivalent l (Testutil.bf_or f g));
    U.qtest ~count:100 "conjunction computes AND" QCheck.(pair (arb_func 4) (arb_func 4))
      (fun (f, g) ->
        let l = Compose.conjunction (Altun_riedel.synthesize f) (Altun_riedel.synthesize g) in
        Checker.equivalent l (Testutil.bf_and f g));
    U.qtest ~count:60 "of_cover is the naive SOP lattice" (U.arb_cover 4)
      (fun c ->
        let l = Compose.of_cover 4 c in
        Checker.equivalent l (Boolfunc.of_cover c));
    U.qtest ~count:60 "three-way composition"
      QCheck.(triple (arb_func 3) (arb_func 3) (arb_func 3))
      (fun (f, g, h) ->
        let lf = Altun_riedel.synthesize f
        and lg = Altun_riedel.synthesize g
        and lh = Altun_riedel.synthesize h in
        let l = Compose.disjunction_list [ Compose.conjunction lf lg; lh ] in
        Checker.equivalent l (Testutil.bf_or (Testutil.bf_and f g) h));
  ]

(* ------------------------------------------------------------------ *)
(* Decomposition-based synthesis                                       *)
(* ------------------------------------------------------------------ *)

let decompose_tests =
  [
    U.qtest ~count:100 "synthesize_with is correct for every split"
      QCheck.(triple (arb_func 4) (int_bound 3) bool)
      (fun (f, var, pol) ->
        Checker.equivalent (Decompose_synth.synthesize_with ~var ~pol f) f);
    U.qtest ~count:40 "best decomposition lattice is correct" (arb_func 4)
      (fun f -> Checker.equivalent (Decompose_synth.synthesize f) f);
    U.qtest ~count:40 "best_of never exceeds direct synthesis" (arb_func 4)
      (fun f ->
        let direct = Altun_riedel.synthesize f in
        let best = (Nxc_core.Synth.synthesize f).Nxc_core.Synth.dec_lattice in
        Lattice.area best <= Lattice.area direct
        && Checker.equivalent best f);
    U.qtest ~count:150 "every candidate and the minimum match the reference"
      (QCheck.make ~print:(Format.asprintf "%a" Testutil.pp_table)
         QCheck.Gen.(int_range 2 6 >>= U.gen_table))
      (fun tt ->
        let f = Boolfunc.make tt in
        let module R = Nxc_oracle.Lattice_ref in
        List.for_all
          (fun var ->
            List.for_all
              (fun pol ->
                R.equal
                  (Decompose_synth.synthesize_with ~var ~pol f)
                  (R.synthesize_with ~var ~pol f))
              [ false; true ])
          (List.init (Tt.n_vars tt) Fun.id)
        && R.equal (Decompose_synth.synthesize f) (R.decompose f));
  ]

(* ------------------------------------------------------------------ *)
(* D-reduction-based synthesis                                         *)
(* ------------------------------------------------------------------ *)

let dred_tests =
  [
    Alcotest.test_case "chi lattice of a hyperplane" `Quick (fun () ->
        let space = Affine.affine_hull ~n:3 [ 0b000; 0b011; 0b101; 0b110 ] in
        (* even-parity subspace *)
        let l = Dred_synth.chi_lattice ~n:3 space in
        check "equivalent to chi" true
          (Checker.equivalent l (Boolfunc.make (Affine.chi space))));
    Alcotest.test_case "xnor via D-reduction" `Quick (fun () ->
        let f = Parse.expr "x1x2 + x1'x2'" in
        match Dred_synth.synthesize f with
        | None -> Alcotest.fail "xnor is D-reducible"
        | Some l -> check "equivalent" true (Checker.equivalent l f));
    Alcotest.test_case "non-reducible functions give None" `Quick (fun () ->
        let f = Parse.expr "x1x2 + x1x3 + x2x3" in
        check "maj3" true (Dred_synth.synthesize f = None));
    U.qtest ~count:150 "D-reduction synthesis is correct when it applies"
      (arb_func 4)
      (fun f ->
        match Dred_synth.synthesize f with
        | None -> true
        | Some l -> Checker.equivalent l f);
    U.qtest ~count:60 "best_of is correct and no worse" (arb_func 4) (fun f ->
        let best = Nxc_core.Synth.best_lattice (Nxc_core.Synth.synthesize f) in
        Checker.equivalent best f
        && Lattice.area best <= Lattice.area (Altun_riedel.synthesize f));
    U.qtest ~count:60 "subspace-confined functions are handled"
      QCheck.(pair (U.arb_table 3) (int_bound 3))
      (fun (tt, v) ->
        let g = Tt.band (Tt.lift tt 4 [| 0; 1; 2 |]) (Testutil.tt_var 4 v) in
        match Tt.is_const g with
        | Some _ -> true
        | None -> (
            match Dred_synth.synthesize (Boolfunc.make g) with
            | None -> false
            | Some l -> Checker.equivalent l (Boolfunc.make g)));
  ]

(* ------------------------------------------------------------------ *)
(* Optimal search                                                      *)
(* ------------------------------------------------------------------ *)

let optimal_tests =
  [
    Alcotest.test_case "and2 minimum area is 2" `Quick (fun () ->
        let f = Parse.expr "x1x2" in
        check "min" true (Optimal.minimum_area f = Some 2));
    Alcotest.test_case "xor2 minimum area is 4" `Quick (fun () ->
        let f = Parse.expr "x1x2' + x1'x2" in
        check "min" true (Optimal.minimum_area ~max_area:4 f = Some 4));
    Alcotest.test_case "literal minimum area is 1" `Quick (fun () ->
        check "min" true (Optimal.minimum_area (Parse.expr "x1'") = Some 1));
    Alcotest.test_case "constant" `Quick (fun () ->
        check "min" true
          (Optimal.minimum_area (Boolfunc.of_fun_int 2 (fun _ -> true)) = Some 1));
    U.qtest ~count:25 "found lattices are equivalent and AR is never smaller"
      (arb_func 2)
      (fun f ->
        match Optimal.search ~max_area:4 f with
        | Optimal.Found l ->
            Checker.equivalent l f
            && Lattice.area l <= Lattice.area (Altun_riedel.synthesize f)
        | Optimal.Proved_larger _ | Optimal.Budget_exhausted -> true);
  ]

let () =
  Alcotest.run "lattice"
    [
      ("eval", eval_tests);
      ("altun_riedel", ar_tests);
      ("compose", compose_tests);
      ("decompose_synth", decompose_tests);
      ("dred_synth", dred_tests);
      ("optimal", optimal_tests);
    ]
