(* Tests for the algorithmic layer of Nxc_logic:
   Parse, Qm, Isop, Minimize, duality, Affine, Pcircuit. *)

open Nxc_logic
module U = Testutil
module Logic_ref = Nxc_oracle.Logic_ref
module Tt = Truth_table

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Parse                                                               *)
(* ------------------------------------------------------------------ *)

let parse_tests =
  [
    Alcotest.test_case "paper's example f = x1x2 + x1'x2'" `Quick (fun () ->
        let f = Parse.expr "x1x2 + x1'x2'" in
        check_int "arity" 2 (Boolfunc.n_vars f);
        check "00" true (Boolfunc.eval_int f 0b00);
        check "11" true (Boolfunc.eval_int f 0b11);
        check "01" false (Boolfunc.eval_int f 0b01);
        check "10" false (Boolfunc.eval_int f 0b10));
    Alcotest.test_case "precedence: AND binds tighter than OR" `Quick (fun () ->
        let f = Parse.expr "x1 + x2 x3" in
        check "x1 alone" true (Boolfunc.eval_int f 0b001);
        check "x2 alone" false (Boolfunc.eval_int f 0b010);
        check "x2x3" true (Boolfunc.eval_int f 0b110));
    Alcotest.test_case "xor and parentheses" `Quick (fun () ->
        let f = Parse.expr "(x1 + x2) ^ x3" in
        check "001" true (Boolfunc.eval_int f 0b001);
        check "101" false (Boolfunc.eval_int f 0b101);
        check "100" true (Boolfunc.eval_int f 0b100));
    Alcotest.test_case "prefix not" `Quick (fun () ->
        let f = Parse.expr "~x1 x2" in
        check "10" true (Boolfunc.eval_int f 0b10);
        check "11" false (Boolfunc.eval_int f 0b11));
    Alcotest.test_case "forced arity" `Quick (fun () ->
        let f = Parse.expr ~n:4 "x1" in
        check_int "arity 4" 4 (Boolfunc.n_vars f));
    Alcotest.test_case "errors" `Quick (fun () ->
        let expect_fail s =
          match Parse.expr s with
          | exception Parse.Parse_error _ -> ()
          | _ -> Alcotest.failf "expected parse error on %S" s
        in
        expect_fail "x";
        expect_fail "x1 +";
        expect_fail "(x1";
        expect_fail "x0";
        expect_fail "x1 ? x2");
    Alcotest.test_case "pla parse" `Quick (fun () ->
        let p =
          Result.get_ok
            (Parse.pla_of_string_result
               ".i 3\n.o 2\n.p 3\n1-0 10\n011 11\n--1 01\n.e\n")
        in
        check_int "inputs" 3 p.Parse.inputs;
        check_int "outputs" 2 p.Parse.outputs;
        let f0 = Tt.of_cover p.Parse.on_sets.(0) in
        check "f0 at x1=1,x3=0" true (Tt.eval_int f0 0b001);
        check "f0 at 011" true (Tt.eval_int f0 0b110);
        check "f0 off at 100" false (Tt.eval_int f0 0b100));
    U.qtest ~count:60 "pla roundtrip" QCheck.(pair (U.arb_cover 4) (U.arb_cover 4))
      (fun (c1, c2) ->
        let p =
          { Parse.inputs = 4;
            outputs = 2;
            input_labels = None;
            output_labels = None;
            on_sets = [| c1; c2 |];
            dc_sets = [| Cover.bottom 4; Cover.bottom 4 |] }
        in
        let p' = Result.get_ok (Parse.pla_of_string_result (Nxc_oracle.Logic_ref.pla_to_string p)) in
        Tt.equal (Tt.of_cover p'.Parse.on_sets.(0)) (Tt.of_cover c1)
        && Tt.equal (Tt.of_cover p'.Parse.on_sets.(1)) (Tt.of_cover c2));
  ]

(* ------------------------------------------------------------------ *)
(* Qm / Isop / Minimize                                                *)
(* ------------------------------------------------------------------ *)

let sop_tests =
  [
    Alcotest.test_case "xor2 needs two products" `Quick (fun () ->
        let f = Parse.expr "x1x2' + x1'x2" in
        let c, st = Qm.minimize_table (Boolfunc.table f) in
        check_int "products" 2 (Cover.num_cubes c);
        check "exact" true st.Qm.exact;
        check "verified" true (Minimize.verify c f));
    Alcotest.test_case "maj3 needs three products" `Quick (fun () ->
        let f = Parse.expr "x1x2 + x1x3 + x2x3" in
        let c, _ = Qm.minimize_table (Boolfunc.table f) in
        check_int "products" 3 (Cover.num_cubes c));
    Alcotest.test_case "merging collapses a full cube" `Quick (fun () ->
        let f = Boolfunc.of_fun_int 4 (fun _ -> true) in
        let c, _ = Qm.minimize_table (Boolfunc.table f) in
        check_int "single universal cube" 1 (Cover.num_cubes c);
        check "it is top" true (Cube.is_top (List.nth (Cover.cubes c) 0)));
    Alcotest.test_case "primes of xor2" `Quick (fun () ->
        let ps = Qm.primes ~n:2 ~on:[ 0b01; 0b10 ] in
        check_int "two primes" 2 (List.length ps));
    U.qtest ~count:100 "qm prime generation charges the oracle's pair count"
      (U.arb_table_sized 6) (fun tt ->
        let n = Tt.n_vars tt and on = Tt.minterms tt in
        let nodes = Nxc_obs.Metrics.counter "qm.bnb_nodes" in
        let before = Nxc_obs.Metrics.counter_value nodes in
        let guard = Nxc_guard.Budget.create ~steps:max_int () in
        ignore (Nxc_guard.Budget.with_current guard (fun () -> Qm.minimize_table tt));
        Nxc_guard.Budget.steps_used guard
        - (Nxc_obs.Metrics.counter_value nodes - before)
        = Logic_ref.prime_pair_steps ~n ~on);
    Alcotest.test_case "qm rejects more than 8 variables" `Quick (fun () ->
        check "primes" true
          (match Qm.primes ~n:9 ~on:[ 0 ] with
          | _ -> false
          | exception Invalid_argument _ -> true);
        check "minimize_table" true
          (match Qm.minimize_table (Testutil.tt_const 9 true) with
          | _ -> false
          | exception Invalid_argument _ -> true));
    U.qtest ~count:60 "qm certificate holds on both backends"
      (U.arb_table_sized 6) (fun tt ->
        let n = Tt.n_vars tt and on = Tt.minterms tt in
        List.for_all
          (fun backend ->
            match Qm.minimize_result ~cover_backend:backend ~n on with
            | Error _ -> false
            | Ok (c, st) -> (
                match Logic_ref.certificate_errors ~n ~on c st with
                | [] -> true
                | errs -> QCheck.Test.fail_report (String.concat "; " errs)))
          [ Qm.Bnb; Qm.Sat ]);
    U.qtest ~count:100 "qm cover equals function" (U.arb_table 5) (fun tt ->
        let c, _ = Qm.minimize_table tt in
        Tt.equal (Tt.of_cover c) tt);
    U.qtest ~count:60 "qm exact cover is irredundant" (U.arb_table 4) (fun tt ->
        let c, st = Qm.minimize_table tt in
        (not st.Qm.exact)
        || List.for_all
             (fun cube ->
               let rest =
                 Cover.make 4
                   (List.filter (fun d -> not (Cube.equal cube d)) (Cover.cubes c))
               in
               not (Tt.equal (Tt.of_cover rest) tt))
             (Cover.cubes c)
        || Cover.num_cubes c = 0);
    U.qtest ~count:150 "isop cover equals function" (U.arb_table 6) (fun tt ->
        Tt.equal (Tt.of_cover (Isop.isop tt)) tt);
    U.qtest "isop with don't cares stays in interval"
      QCheck.(pair (U.arb_table 5) (U.arb_table 5))
      (fun (a, b) ->
        let lower = Tt.band a b and upper = Tt.bor a b in
        let c = Tt.of_cover (Isop.isop ~lower upper) in
        Tt.implies lower c && Tt.implies c upper);
    U.qtest ~count:100 "isop is irredundant" (U.arb_table 4) (fun tt ->
        let c = Isop.isop tt in
        Cover.num_cubes c <= 1
        || List.for_all
             (fun cube ->
               let rest =
                 Cover.make 4
                   (List.filter (fun d -> not (Cube.equal cube d)) (Cover.cubes c))
               in
               not (Tt.implies tt (Tt.of_cover rest)))
             (Cover.cubes c));
    U.qtest ~count:100 "isop never beats exact QM" (U.arb_table 4) (fun tt ->
        let exact, st = Qm.minimize_table tt in
        (not st.Qm.exact)
        || Cover.num_cubes (Isop.isop tt) >= Cover.num_cubes exact);
    U.qtest ~count:100 "minimize auto verifies" (U.arb_table_sized 6) (fun tt ->
        let c = Minimize.sop_table tt in
        Tt.equal (Tt.of_cover c) tt);
  ]

(* ------------------------------------------------------------------ *)
(* Duality                                                             *)
(* ------------------------------------------------------------------ *)

let dual_tests =
  [
    Alcotest.test_case "paper example: dual of xnor is xor" `Quick (fun () ->
        let f = Parse.expr "x1x2 + x1'x2'" in
        let d = Boolfunc.dual f in
        let xor = Parse.expr "x1x2' + x1'x2" in
        check "dual" true (Tt.equal (Boolfunc.table d) (Boolfunc.table xor));
        (* both have exactly 2 products, as the paper notes *)
        check_int "products of f" 2 (Cover.num_cubes (Minimize.sop f));
        check_int "products of fD" 2 (Cover.num_cubes (Minimize.sop d)));
    Alcotest.test_case "dual cover of AND" `Quick (fun () ->
        let c = Cover.make 2 [ Cube.of_literals 2 [ (0, Cube.Pos); (1, Cube.Pos) ] ] in
        let d = Minimize.sop_table (Tt.dual (Tt.of_cover c)) in
        check_int "two products (x1 + x2)" 2 (Cover.num_cubes d);
        check "semantics" true
          (Tt.equal (Tt.of_cover d) (Tt.dual (Tt.of_cover c))));
    U.qtest ~count:80 "dual cover denotes the dual" (U.arb_table 5) (fun tt ->
        let c = Minimize.sop_table tt in
        let d = Minimize.sop_table (Tt.dual (Tt.of_cover c)) in
        Tt.equal (Tt.of_cover d) (Tt.dual tt));
    U.qtest ~count:200 "sharing lemma: products of f and fD always intersect"
      (U.arb_table 5)
      (fun tt ->
        let cf = Minimize.sop_table tt in
        let cd = Minimize.sop_table (Tt.dual tt) in
        Logic_ref.check_sharing cf cd);
    U.qtest ~count:100 "sharing lemma holds for ISOP covers too" (U.arb_table 6)
      (fun tt ->
        Logic_ref.check_sharing (Isop.isop tt) (Isop.isop (Tt.dual tt)));
  ]

(* ------------------------------------------------------------------ *)
(* Affine                                                              *)
(* ------------------------------------------------------------------ *)

let points = Nxc_oracle.Logic_ref.affine_points

let affine_tests =
  [
    Alcotest.test_case "hull of a single point has dimension 0" `Quick (fun () ->
        let s = Affine.affine_hull ~n:4 [ 0b1010 ] in
        check_int "dim" 0 (Affine.dimension s);
        Alcotest.(check (list int)) "points" [ 0b1010 ] (points ~n:4 s));
    Alcotest.test_case "hull of two points has dimension 1" `Quick (fun () ->
        let s = Affine.affine_hull ~n:4 [ 0b0000; 0b0110 ] in
        check_int "dim" 1 (Affine.dimension s);
        Alcotest.(check (list int)) "points" [ 0b0000; 0b0110 ] (points ~n:4 s));
    Alcotest.test_case "full space" `Quick (fun () ->
        let s = Affine.affine_hull ~n:3 [ 0; 1; 2; 4 ] in
        check_int "dim" 3 (Affine.dimension s);
        check_int "all points" 8 (List.length (points ~n:3 s)));
    Alcotest.test_case "xnor is D-reducible" `Quick (fun () ->
        (* on-set {00,11} is the affine space x1 = x2 *)
        let f = Parse.expr "x1x2 + x1'x2'" in
        match Affine.d_reduction f with
        | None -> Alcotest.fail "expected a reduction"
        | Some r ->
            check_int "dim 1" 1 (Affine.dimension r.Affine.space);
            check "reconstructs" true
              (Tt.equal (Affine.reconstruct ~n:2 r) (Boolfunc.table f)));
    Alcotest.test_case "parity on-set is itself an affine space" `Quick (fun () ->
        let f = Parse.expr "x1 ^ x2 ^ x3" in
        match Affine.d_reduction f with
        | None -> Alcotest.fail "parity is the classic D-reducible function"
        | Some r ->
            check_int "dim 2" 2 (Affine.dimension r.Affine.space);
            check "projection is constant 1" true
              (Tt.is_const r.Affine.projection = Some true);
            check "reconstructs" true
              (Tt.equal (Affine.reconstruct ~n:3 r) (Boolfunc.table f)));
    Alcotest.test_case "majority3 is not D-reducible" `Quick (fun () ->
        let f = Parse.expr "x1x2 + x1x3 + x2x3" in
        check "hull is everything" true (Affine.d_reduction f = None));
    Alcotest.test_case "chi matches membership" `Quick (fun () ->
        let s = Affine.affine_hull ~n:4 [ 1; 2; 4; 7 ] in
        let chi = Affine.chi s in
        for m = 0 to 15 do
          check "chi" (Affine.mem s m) (Tt.eval_int chi m)
        done);
    U.qtest "hull contains its generators"
      QCheck.(list_of_size (QCheck.Gen.int_range 1 8) (int_bound 31))
      (fun pts ->
        let s = Affine.affine_hull ~n:5 pts in
        List.for_all (Affine.mem s) pts);
    U.qtest "hull is a closed affine set of the right size"
      QCheck.(list_of_size (QCheck.Gen.int_range 1 6) (int_bound 31))
      (fun pts ->
        let s = Affine.affine_hull ~n:5 pts in
        let hull_points = points ~n:5 s in
        let s2 = Affine.affine_hull ~n:5 hull_points in
        Affine.dimension s = Affine.dimension s2
        && List.length hull_points = 1 lsl Affine.dimension s
        && List.length (List.sort_uniq compare pts) <= List.length hull_points);
    U.qtest ~count:200 "d_reduction reconstructs f" (U.arb_table 5) (fun tt ->
        let f = Boolfunc.make tt in
        match Affine.d_reduction f with
        | None -> true
        | Some r -> Tt.equal (Affine.reconstruct ~n:5 r) tt);
    U.qtest ~count:100 "functions forced into a subspace are D-reducible"
      QCheck.(pair (U.arb_table 4) (int_bound 3))
      (fun (tt, v) ->
        (* f AND x_v has its on-set inside the hyperplane x_v = 1 *)
        let g = Tt.band (Tt.lift tt 5 [| 0; 1; 2; 3 |]) (Testutil.tt_var 5 v) in
        match Tt.is_const g with
        | Some false -> true
        | _ -> (
            match Affine.d_reduction (Boolfunc.make g) with
            | None -> false
            | Some r ->
                Affine.dimension r.Affine.space <= 4
                && Tt.equal (Affine.reconstruct ~n:5 r) g));
  ]

(* ------------------------------------------------------------------ *)
(* Pcircuit                                                            *)
(* ------------------------------------------------------------------ *)

let pcircuit_tests =
  [
    Alcotest.test_case "decompose parity" `Quick (fun () ->
        let f = Parse.expr "x1 ^ x2 ^ x3" in
        let d = Pcircuit.decompose ~var:0 ~pol:true f in
        check "valid" true (Nxc_oracle.Logic_ref.pcircuit_valid f d);
        (* the two cofactors of a parity are disjoint: intersection empty *)
        check "empty intersection" true
          (Tt.is_const d.Pcircuit.f_int = Some false));
    Alcotest.test_case "components do not depend on the split variable" `Quick
      (fun () ->
        let f = Parse.expr "x1x2 + x2x3 + x1'x3'" in
        let d = Pcircuit.decompose ~var:1 ~pol:false f in
        check "f_eq" false (Tt.depends_on d.Pcircuit.f_eq 1);
        check "f_neq" false (Tt.depends_on d.Pcircuit.f_neq 1);
        check "f_int" false (Tt.depends_on d.Pcircuit.f_int 1));
    Alcotest.test_case "projected components are disjoint from I" `Quick (fun () ->
        let f = Parse.expr "x1x2 + x3" in
        let d = Pcircuit.decompose ~var:0 ~pol:true f in
        check "f_eq disjoint from f_int" true
          (Tt.is_const (Tt.band d.Pcircuit.f_eq d.Pcircuit.f_int) = Some false));
    U.qtest ~count:200 "projected decomposition is valid for every var and pol"
      QCheck.(triple (U.arb_table 5) (int_bound 4) bool)
      (fun (tt, var, pol) ->
        let f = Boolfunc.make tt in
        Nxc_oracle.Logic_ref.pcircuit_valid f (Pcircuit.decompose ~var ~pol f));
  ]

(* ------------------------------------------------------------------ *)
(* Edge cases and fallback paths                                       *)
(* ------------------------------------------------------------------ *)

let edge_tests =
  [
    Alcotest.test_case "QM budget exhaustion falls back to greedy" `Quick
      (fun () ->
        (* a function whose covering needs branching: 204 nodes, at
           depth at least 15 - essentials before the first cover *)
        let tt = Logic_ref.random_table 6 ~seed:68 in
        let on = Tt.minterms tt in
        (* prime generation's exact cost plus 3 steps: the primes
           complete (no ISOP fallback) and the branch and bound runs
           out before its first cover, leaving greedy covering *)
        let steps = Logic_ref.prime_pair_steps ~n:6 ~on + 3 in
        let isop = Nxc_obs.Metrics.counter "guard.degrade.qm_to_isop" in
        let before = Nxc_obs.Metrics.counter_value isop in
        let cover, st =
          Nxc_guard.Budget.with_current
            (Nxc_guard.Budget.create ~label:"test" ~steps ())
            (fun () -> Qm.minimize_table tt)
        in
        check "still covers" true (Tt.equal (Tt.of_cover cover) tt);
        check "flagged inexact" false st.Qm.exact;
        check "primes complete" true (Nxc_obs.Metrics.counter_value isop = before);
        check "bound still reported" true (st.Qm.lower_bound > st.Qm.num_essential));
    Alcotest.test_case "QM on the empty on-set" `Quick (fun () ->
        let c, st = Qm.minimize_table (Testutil.tt_const 4 false) in
        check_int "bottom" 0 (Cover.num_cubes c);
        check "exact" true st.Qm.exact);
    Alcotest.test_case "isop rejects inverted intervals" `Quick (fun () ->
        let upper = Testutil.tt_const 3 false and lower = Testutil.tt_const 3 true in
        check "raises" true
          (match Isop.isop ~lower upper with
          | exception Invalid_argument _ -> true
          | _ -> false));
    Alcotest.test_case "pla_of_functions roundtrips through text" `Quick
      (fun () ->
        let fs = [ Parse.expr ~n:3 "x1x2 + x3'"; Parse.expr ~n:3 "x2 ^ x3" ] in
        let p = Nxc_oracle.Logic_ref.pla_of_functions fs in
        let p' = Result.get_ok (Parse.pla_of_string_result (Nxc_oracle.Logic_ref.pla_to_string p)) in
        List.iteri
          (fun o f ->
            check "same function" true
              (Tt.equal (Tt.of_cover p'.Parse.on_sets.(o)) (Boolfunc.table f)))
          fs);
    Alcotest.test_case "boolfunc operators" `Quick (fun () ->
        let a = Parse.expr ~n:2 "x1" and b = Parse.expr ~n:2 "x2" in
        check "and" true
          (Boolfunc.eval_int (Testutil.bf_and a b) 0b11
          && not (Boolfunc.eval_int (Testutil.bf_and a b) 0b01));
        check "or" true (Boolfunc.eval_int (Testutil.bf_or a b) 0b10);
        check "dual of x1 is x1" true
          (Tt.equal (Boolfunc.table (Boolfunc.dual a)) (Boolfunc.table a));
        check "named" true (Boolfunc.name (Boolfunc.with_name "g" a) = "g"));
  ]

let () =
  Alcotest.run "logic-algs"
    [
      ("parse", parse_tests);
      ("sop", sop_tests);
      ("dual", dual_tests);
      ("affine", affine_tests);
      ("pcircuit", pcircuit_tests);
      ("edge_cases", edge_tests);
    ]
