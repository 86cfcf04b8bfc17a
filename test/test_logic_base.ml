(* Unit and property tests for the base representations:
   Bitvec, Cube, Cover, Truth_table. *)

open Nxc_logic
module U = Testutil

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Bitvec                                                              *)
(* ------------------------------------------------------------------ *)

let bitvec_tests =
  [
    Alcotest.test_case "create/get" `Quick (fun () ->
        let v = Bitvec.create 13 false in
        check_int "length" 13 (Bitvec.length v);
        for i = 0 to 12 do
          check "init false" false (Bitvec.get v i)
        done;
        let w = Bitvec.create 13 true in
        check_int "popcount all ones" 13 (Bitvec.popcount w));
    Alcotest.test_case "set/get roundtrip" `Quick (fun () ->
        let v = Bitvec.create 20 false in
        Bitvec.set v 3 true;
        Bitvec.set v 19 true;
        Bitvec.set v 3 false;
        check "bit 3 cleared" false (Bitvec.get v 3);
        check "bit 19 set" true (Bitvec.get v 19);
        check_int "popcount" 1 (Bitvec.popcount v));
    Alcotest.test_case "out of range raises" `Quick (fun () ->
        let v = Bitvec.create 8 false in
        Alcotest.check_raises "get -1" (Invalid_argument "Bitvec: index out of range")
          (fun () -> ignore (Bitvec.get v (-1)));
        Alcotest.check_raises "get 8" (Invalid_argument "Bitvec: index out of range")
          (fun () -> ignore (Bitvec.get v 8)));
    Alcotest.test_case "fold_true order" `Quick (fun () ->
        let v = Bitvec.init 10 (fun i -> i mod 3 = 0) in
        let idx = List.rev (Bitvec.fold_true (fun i acc -> i :: acc) v []) in
        Alcotest.(check (list int)) "indices" [ 0; 3; 6; 9 ] idx);
    U.qtest "lnot involution" QCheck.(pair small_nat (int_bound 1000))
      (fun (len, seed) ->
        let len = (len mod 50) + 1 in
        let v = Bitvec.init len (fun i -> (i * seed) mod 7 < 3) in
        Bitvec.equal v (Bitvec.lnot (Bitvec.lnot v)));
    U.qtest "land popcount bound" QCheck.(pair (int_bound 1000) (int_bound 1000))
      (fun (s1, s2) ->
        let len = 33 in
        let a = Bitvec.init len (fun i -> (i * (s1 + 1)) mod 5 < 2)
        and b = Bitvec.init len (fun i -> (i * (s2 + 1)) mod 3 < 1) in
        Bitvec.popcount (Bitvec.land_ a b) <= min (Bitvec.popcount a) (Bitvec.popcount b));
    U.qtest "lxor self is zero" QCheck.(int_bound 1000) (fun s ->
        let v = Bitvec.init 40 (fun i -> (i + s) mod 2 = 0) in
        (* v xor v is zero: v has no first difference from itself *)
        Bitvec.first_diff v (Bitvec.copy v) = None);
  ]

(* ------------------------------------------------------------------ *)
(* Cube                                                                *)
(* ------------------------------------------------------------------ *)

let n = 5

let cube_tests =
  [
    Alcotest.test_case "top cube" `Quick (fun () ->
        let t = Cube.top n in
        check "is_top" true (Cube.is_top t);
        check_int "no literals" 0 (List.length (Cube.literals t));
        for m = 0 to (1 lsl n) - 1 do
          check "top true everywhere" true (Cube.eval_int t m)
        done);
    Alcotest.test_case "literal eval" `Quick (fun () ->
        let c = Cube.of_literals n [ (0, Pos); (2, Neg) ] in
        check "x1 x3' at 00001" true (Cube.eval_int c 0b00001);
        check "x1 x3' at 00101" false (Cube.eval_int c 0b00101);
        check "x1 x3' at 00000" false (Cube.eval_int c 0b00000);
        Alcotest.(check string) "printing" "x1x3'" (Testutil.cube_to_string c));
    Alcotest.test_case "conflicting literals rejected" `Quick (fun () ->
        Alcotest.check_raises "x1 and x1'"
          (Invalid_argument "Cube.of_literals: conflicting polarities")
          (fun () -> ignore (Cube.of_literals n [ (0, Pos); (0, Neg) ])));
    Alcotest.test_case "minterms of a cube" `Quick (fun () ->
        let c = Cube.of_literals 3 [ (1, Pos) ] in
        Alcotest.(check (list int)) "x2 minterms" [ 2; 3; 6; 7 ] (Testutil.cube_minterms c));
    Alcotest.test_case "merge (QM step)" `Quick (fun () ->
        let a = Nxc_oracle.Logic_ref.of_minterm 3 0b000 and b = Nxc_oracle.Logic_ref.of_minterm 3 0b100 in
        (match Nxc_oracle.Logic_ref.merge a b with
        | Some m -> Alcotest.(check string) "merged" "x1'x2'" (Testutil.cube_to_string m)
        | None -> Alcotest.fail "expected merge");
        let c = Nxc_oracle.Logic_ref.of_minterm 3 0b011 in
        check "no merge at distance 2" true (Nxc_oracle.Logic_ref.merge a c = None));
    U.qtest "literals roundtrip" (U.arb_cube n) (fun c ->
        Cube.equal c (Cube.of_literals n (Cube.literals c)));
    U.qtest "contains is minterm inclusion" QCheck.(pair (U.arb_cube n) (U.arb_cube n))
      (fun (a, b) ->
        let inc =
          List.for_all (fun m -> Cube.eval_int a m) (Testutil.cube_minterms b)
        in
        Cube.contains a b = inc);
    U.qtest "intersect is conjunction" QCheck.(pair (U.arb_cube n) (U.arb_cube n))
      (fun (a, b) ->
        let sem m = Cube.eval_int a m && Cube.eval_int b m in
        match Cube.intersect a b with
        | Some c -> U.same_function n (Cube.eval_int c) sem
        | None -> U.same_function n (fun _ -> false) sem);
    U.qtest "cofactor semantics" QCheck.(triple (U.arb_cube n) (int_bound (n - 1)) bool)
      (fun (c, v, b) ->
        let p = if b then Cube.Pos else Cube.Neg in
        let fix m = if b then m lor (1 lsl v) else m land lnot (1 lsl v) in
        match Cube.cofactor c v p with
        | Some c' -> U.same_function n (Cube.eval_int c') (fun m -> Cube.eval_int c (fix m))
        | None -> U.same_function n (fun _ -> false) (fun m -> Cube.eval_int c (fix m)));
    U.qtest "shares_literal iff common_literals nonempty"
      QCheck.(pair (U.arb_cube n) (U.arb_cube n))
      (fun (a, b) ->
        (* sharing a literal: some (variable, polarity) is in both *)
        List.exists (fun l -> List.mem l (Cube.literals b)) (Cube.literals a)
        = (Cube.common_literals a b <> []));
  ]

(* ------------------------------------------------------------------ *)
(* Cover                                                               *)
(* ------------------------------------------------------------------ *)

let tt_of_cover c = Truth_table.of_cover c

let cover_tests =
  [
    Alcotest.test_case "constants" `Quick (fun () ->
        check "bottom" true (Cover.num_cubes (Cover.bottom n) = 0);
        check "top is tautology" true (Cover.is_tautology (Cover.make n [ Cube.top n ]));
        check "bottom not tautology" false (Cover.is_tautology (Cover.bottom n)));
    Alcotest.test_case "xor cover" `Quick (fun () ->
        let f =
          Cover.make 2
            [ Cube.of_literals 2 [ (0, Pos); (1, Neg) ];
              Cube.of_literals 2 [ (0, Neg); (1, Pos) ] ]
        in
        check "eval 01" true (Cover.eval_int f 0b01);
        check "eval 10" true (Cover.eval_int f 0b10);
        check "eval 00" false (Cover.eval_int f 0b00);
        check "eval 11" false (Cover.eval_int f 0b11);
        check_int "distinct literals" 4 (List.length (Cover.distinct_literals f)));
    Alcotest.test_case "tautology x + x'" `Quick (fun () ->
        let f =
          Cover.make 3 [ Cube.literal 3 1 Pos; Cube.literal 3 1 Neg ]
        in
        check "tautology" true (Cover.is_tautology f));
    U.qtest "tautology agrees with truth table" (U.arb_cover 4) (fun f ->
        Cover.is_tautology f
        = (Truth_table.is_const (tt_of_cover f) = Some true));
    U.qtest "complement is negation" (U.arb_cover 4) (fun f ->
        Truth_table.equal
          (tt_of_cover (Cover.complement f))
          (Truth_table.bnot (tt_of_cover f)));
    (* the minimizer's covers are irredundant *)
    U.qtest "irredundant preserves semantics" (U.arb_cover 4) (fun f ->
        Truth_table.equal
          (tt_of_cover (Minimize.sop (Boolfunc.of_cover f)))
          (tt_of_cover f));
    U.qtest "irredundant is irredundant" (U.arb_cover 4) (fun f ->
        let g = Minimize.sop (Boolfunc.of_cover f) in
        List.for_all
          (fun c ->
            let rest =
              Cover.make 4 (List.filter (fun d -> not (Cube.equal c d)) (Cover.cubes g))
            in
            not (Cover.covers_cube rest c))
          (Cover.cubes g));
    U.qtest "union is disjunction" QCheck.(pair (U.arb_cover 4) (U.arb_cover 4))
      (fun (f, g) ->
        Truth_table.equal
          (tt_of_cover (Cover.union f g))
          (Truth_table.bor (tt_of_cover f) (tt_of_cover g)));
    U.qtest "cofactor semantics" QCheck.(triple (U.arb_cover 4) (int_bound 3) bool)
      (fun (f, v, b) ->
        let p = if b then Cube.Pos else Cube.Neg in
        Truth_table.equal
          (tt_of_cover (Cover.cofactor f v p))
          (Truth_table.cofactor (tt_of_cover f) v b));
    U.qtest "covers_cube agrees with semantics"
      QCheck.(pair (U.arb_cover 4) (U.arb_cube 4))
      (fun (f, c) ->
        Cover.covers_cube f c
        = List.for_all (fun m -> Cover.eval_int f m) (Testutil.cube_minterms c));
    U.qtest "minterm roundtrip" (U.arb_cover 4) (fun f ->
        let g =
          Cover.make 4
            (List.map (Nxc_oracle.Logic_ref.of_minterm 4) (Truth_table.minterms (tt_of_cover f)))
        in
        Truth_table.equal (tt_of_cover f) (tt_of_cover g));
  ]

(* ------------------------------------------------------------------ *)
(* Truth_table                                                         *)
(* ------------------------------------------------------------------ *)

(* the variables a table depends on, ascending *)
let support f =
  List.filter (Truth_table.depends_on f) (List.init (Truth_table.n_vars f) Fun.id)

let table_tests =
  [
    Alcotest.test_case "var projection" `Quick (fun () ->
        let x2 = Testutil.tt_var 3 1 in
        check "at 010" true (Truth_table.eval_int x2 0b010);
        check "at 101" false (Truth_table.eval_int x2 0b101));
    Alcotest.test_case "dual of AND is OR" `Quick (fun () ->
        let f = Truth_table.of_fun_int 2 (fun m -> m = 0b11) in
        let g = Truth_table.of_fun_int 2 (fun m -> m <> 0b00) in
        check "dual" true (Truth_table.equal (Truth_table.dual f) g));
    Alcotest.test_case "xor is self-dual" `Quick (fun () ->
        (* parity of an odd number of variables is self-dual *)
        let f3 =
          Truth_table.of_fun_int 3 (fun m ->
              (m lxor (m lsr 1) lxor (m lsr 2)) land 1 = 1)
        in
        check "parity3 self-dual" true (Truth_table.equal f3 (Truth_table.dual f3)));
    Alcotest.test_case "majority is self-dual" `Quick (fun () ->
        let maj =
          Truth_table.of_fun_int 3 (fun m ->
              (m land 1) + ((m lsr 1) land 1) + ((m lsr 2) land 1) >= 2)
        in
        check "maj3 self-dual" true (Truth_table.equal maj (Truth_table.dual maj)));
    Alcotest.test_case "support" `Quick (fun () ->
        let f = Truth_table.of_fun_int 4 (fun m -> m land 0b101 = 0b101) in
        Alcotest.(check (list int)) "vars 0 and 2" [ 0; 2 ] (support f));
    Alcotest.test_case "restrict_to_support" `Quick (fun () ->
        (* f over its support {x2, x4} is x1 + x2; lifting it back onto
           variables 1 and 3 of four gives f again *)
        let f = Truth_table.of_fun_int 4 (fun m -> m land 0b1010 <> 0) in
        let sup = support f in
        Alcotest.(check (list int)) "support" [ 1; 3 ] sup;
        let g = Truth_table.of_fun_int 2 (fun m -> m <> 0) in
        let back = Truth_table.lift g 4 (Array.of_list sup) in
        check "roundtrip" true (Truth_table.equal back f));
    Alcotest.test_case "random determinism" `Quick (fun () ->
        check "same seed" true
          (Truth_table.equal (Nxc_oracle.Logic_ref.random_table 6 ~seed:42)
             (Nxc_oracle.Logic_ref.random_table 6 ~seed:42));
        check "different seed" false
          (Truth_table.equal (Nxc_oracle.Logic_ref.random_table 6 ~seed:42)
             (Nxc_oracle.Logic_ref.random_table 6 ~seed:43)));
    Alcotest.test_case "density control" `Quick (fun () ->
        let f = Truth_table.random_with_density 10 ~seed:7 ~density:0.25 in
        let frac =
          float_of_int (Truth_table.count_ones f) /. float_of_int (Truth_table.size f)
        in
        check "roughly a quarter" true (frac > 0.18 && frac < 0.32));
    U.qtest "dual is involutive" (U.arb_table 5) (fun f ->
        Truth_table.equal f (Truth_table.dual (Truth_table.dual f)));
    U.qtest "dual is complement of reflected" (U.arb_table 5) (fun f ->
        let full = Truth_table.size f - 1 in
        U.same_function 5
          (Truth_table.eval_int (Truth_table.dual f))
          (fun m -> not (Truth_table.eval_int f (m lxor full))));
    U.qtest "de morgan" QCheck.(pair (U.arb_table 5) (U.arb_table 5))
      (fun (f, g) ->
        Truth_table.equal
          (Truth_table.bnot (Truth_table.band f g))
          (Truth_table.bor (Truth_table.bnot f) (Truth_table.bnot g)));
    U.qtest "exists quantification" QCheck.(pair (U.arb_table 4) (int_bound 3))
      (fun (f, v) ->
        let e =
          Truth_table.bor (Truth_table.cofactor f v false)
            (Truth_table.cofactor f v true)
        in
        U.same_function 4 (Truth_table.eval_int e) (fun m ->
            Truth_table.eval_int f (m lor (1 lsl v))
            || Truth_table.eval_int f (m land lnot (1 lsl v))));
    U.qtest "cofactor kills dependence" QCheck.(triple (U.arb_table 4) (int_bound 3) bool)
      (fun (f, v, b) ->
        not (Truth_table.depends_on (Truth_table.cofactor f v b) v));
    (* compare is the order of the printed tables: arity 0-9 keeps the
       "ttN:" prefix one digit, so it orders arities numerically too *)
    U.qtest ~count:500 "compare has the sign of the pp string compare"
      (let gen =
         QCheck.Gen.(
           U.gen_table_sized 9 >>= fun f ->
           let n = Truth_table.n_vars f in
           oneof
             [ return f;
               (* f with one minterm flipped: equal up to that minterm *)
               map
                 (fun m ->
                   Truth_table.of_fun_int n (fun x ->
                       Truth_table.eval_int f x <> (x = m)))
                 (int_bound (Truth_table.size f - 1));
               U.gen_table_sized 9 ]
           >|= fun g -> (f, g))
       in
       QCheck.make
         ~print:(fun (f, g) ->
           Format.asprintf "%a vs %a" Testutil.pp_table f Testutil.pp_table g)
         gen)
      (fun (f, g) ->
        let pp = Format.asprintf "%a" Testutil.pp_table in
        Int.compare (Truth_table.compare f g) 0
        = Int.compare (String.compare (pp f) (pp g)) 0);
  ]

let () =
  Alcotest.run "logic-base"
    [
      ("bitvec", bitvec_tests);
      ("cube", cube_tests);
      ("cover", cover_tests);
      ("truth_table", table_tests);
    ]
