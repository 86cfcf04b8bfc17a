(* Equivalence suites for the word-parallel evaluation kernels:
   Bitslice/Bitvec word primitives against their naive per-bit
   definitions, the dense-table QM prime generation against the
   historical full pair scan, the pruned covering branch and bound
   against the unpruned list-based one, and the bit-sliced lattice
   kernel against the scalar BFS. *)

module Bitslice = Nxc_logic.Bitslice
module Bitvec = Nxc_logic.Bitvec
module Cube = Nxc_logic.Cube
module Qm = Nxc_logic.Qm
module Tt = Nxc_logic.Truth_table
module Lattice = Nxc_lattice.Lattice

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let qtest = Testutil.qtest

(* ------------------------------------------------------------------ *)
(* Word popcount                                                       *)
(* ------------------------------------------------------------------ *)

let naive_popcount x =
  let c = ref 0 in
  for i = 0 to Sys.int_size - 1 do
    if (x lsr i) land 1 = 1 then incr c
  done;
  !c

let popcount_tests =
  [ Alcotest.test_case "corner words" `Quick (fun () ->
        List.iter
          (fun x -> check_int (string_of_int x) (naive_popcount x)
              (Bitslice.popcount x))
          [ 0; 1; -1; 2; min_int; max_int; 0x55555555; -0x55555556 ]);
    qtest "popcount agrees with naive" QCheck.int (fun x ->
        Bitslice.popcount x = naive_popcount x);
    qtest "lowest_set agrees with naive" QCheck.int (fun x ->
        QCheck.assume (x <> 0);
        let rec go i = if (x lsr i) land 1 = 1 then i else go (i + 1) in
        Bitslice.lowest_set x = go 0);
    qtest "cube popcounts" (Testutil.arb_cube 6) (fun c ->
        List.length (Cube.literals c) = List.length (Cube.literals c)) ]

(* ------------------------------------------------------------------ *)
(* Bitvec word-level API                                               *)
(* ------------------------------------------------------------------ *)

let arb_bits n =
  QCheck.make
    ~print:(fun l -> String.concat "" (List.map (fun b -> if b then "1" else "0") l))
    QCheck.Gen.(list_size (int_range 0 n) bool)

let of_bools l =
  let v = Bitvec.create (List.length l) false in
  List.iteri (fun i b -> Bitvec.set v i b) l;
  v

let bitvec_tests =
  [ qtest "of_words/get_word roundtrip" (arb_bits 200) (fun l ->
        (* words packed by hand: bit i of the vector is bit
           i mod word_bits of word i / word_bits *)
        let v = of_bools l in
        let ws = Array.make (Bitslice.words_for (List.length l)) 0 in
        List.iteri
          (fun i b ->
            if b then
              ws.(i / Bitslice.word_bits) <-
                ws.(i / Bitslice.word_bits) lor (1 lsl (i mod Bitslice.word_bits)))
          l;
        Bitvec.equal v (Bitvec.of_words (Bitvec.length v) ws));
    qtest "first_set is the least set index" (arb_bits 200) (fun l ->
        (* the first disagreement with the all-zero vector *)
        let v = of_bools l in
        Bitvec.first_diff v (Bitvec.create (List.length l) false)
        = List.find_index (fun b -> b) l);
    qtest "first_diff is the least disagreement" (arb_bits 200) (fun l ->
        let v = of_bools l in
        let w = Bitvec.copy v in
        (match Bitvec.first_diff v w with None -> () | Some _ -> assert false);
        if Bitvec.length v = 0 then true
        else begin
          let i = Bitvec.length v / 2 in
          Bitvec.set w i (not (Bitvec.get w i));
          Bitvec.first_diff v w = Some i
        end);
    qtest "popcount counts set bits" (arb_bits 200) (fun l ->
        Bitvec.popcount (of_bools l)
        = List.length (List.filter (fun b -> b) l)) ]

(* ------------------------------------------------------------------ *)
(* Bucketed QM prime scan vs the historical full pair scan             *)
(* ------------------------------------------------------------------ *)

let arb_on_set n =
  QCheck.make
    ~print:(fun on -> Printf.sprintf "on=[%s]" (String.concat ";" (List.map string_of_int on)))
    QCheck.Gen.(list_size (int_range 0 (1 lsl n)) (int_range 0 ((1 lsl n) - 1)))

let primes_match n on =
  List.equal Cube.equal (Qm.primes ~n ~on)
    (Nxc_oracle.Logic_ref.primes_reference ~n ~on ~dc:[])

(* the fewest sets covering every element, by breadth-first search over
   the subsets of elements covered so far (at most 16 elements) *)
let brute_min_sets ~num_sets ~covered_by =
  let elems = Array.length covered_by in
  let cov = Array.make num_sets 0 in
  Array.iteri
    (fun e who -> List.iter (fun i -> cov.(i) <- cov.(i) lor (1 lsl e)) who)
    covered_by;
  let full = (1 lsl elems) - 1 in
  let dist = Array.make (full + 1) (-1) in
  dist.(0) <- 0;
  let q = Queue.create () in
  Queue.add 0 q;
  while dist.(full) < 0 && not (Queue.is_empty q) do
    let s = Queue.pop q in
    Array.iter
      (fun c ->
        let t = s lor c in
        if dist.(t) < 0 then begin
          dist.(t) <- dist.(s) + 1;
          Queue.add t q
        end)
      cov
  done;
  dist.(full)

(* the pruned bitset branch and bound against the unpruned list-based
   reference on the covering problems QM hands it, with room to
   finish, under a small node budget and under a small step budget:
   where the reference completes, the same cover, exact, in no more
   nodes; where it is cut short, a cover no larger; and at n <= 4 an
   exact cover has the brute-force minimum size *)
let arb_cover_problem =
  QCheck.make
    ~print:(fun (tt, nodes, steps) ->
      Format.asprintf "%a nodes=%d steps=%s" Testutil.pp_table tt nodes
        (match steps with None -> "-" | Some s -> string_of_int s))
    QCheck.Gen.(
      triple
        (int_range 2 6 >>= Testutil.gen_table)
        (oneof [ return 200_000; int_range 1 40 ])
        (opt (int_range 0 60)))

let cover_law (tt, budget, steps) =
  let n = Tt.n_vars tt in
  let on = Tt.minterms tt in
  let primes = Array.of_list (Qm.primes ~n ~on) in
  let covered_by = Nxc_oracle.Logic_ref.covered_by primes on in
  let num_sets = Array.length primes in
  let witness = Nxc_logic.Sat_cover.independent_set covered_by in
  let guard () =
    match steps with
    | None -> Nxc_guard.Budget.unlimited
    | Some s -> Nxc_guard.Budget.create ~steps:s ()
  in
  let best, exact, nodes =
    Nxc_guard.Budget.with_current (guard ()) (fun () ->
        Qm.cover_exact ~budget ~num_sets ~covered_by ~witness)
  in
  let r_best, r_exact, r_nodes =
    Nxc_oracle.Logic_ref.cover_exact ~guard:(guard ()) ~budget primes on
  in
  let size = Option.map List.length in
  let agrees =
    if r_exact then best = r_best && exact && nodes <= r_nodes
    else
      match (size best, size r_best) with
      | _, None -> true
      | Some b, Some r -> b <= r
      | None, Some _ -> false
  in
  agrees
  && (n > 4 || (not exact)
     || size best = Some (brute_min_sets ~num_sets ~covered_by))

let qm_tests =
  [ qtest "bucketed primes = full-scan primes (n=4)" (arb_on_set 4)
      (primes_match 4);
    qtest ~count:100 "bucketed primes = full-scan primes (n=5)"
      (arb_on_set 5) (primes_match 5);
    qtest ~count:40 "bucketed primes = full-scan primes (n=6)"
      (arb_on_set 6) (primes_match 6);
    qtest ~count:25 "bucketed primes = full-scan primes (n=7)"
      (arb_on_set 7) (primes_match 7);
    qtest ~count:10 "bucketed primes = full-scan primes (n=8)"
      (arb_on_set 8) (primes_match 8);
    qtest ~count:300 "bitset cover = list cover" arb_cover_problem cover_law ]

(* ------------------------------------------------------------------ *)
(* Bit-sliced lattice kernel vs scalar BFS                             *)
(* ------------------------------------------------------------------ *)

let gen_site n =
  QCheck.Gen.(
    frequency
      [ (1, return Lattice.Zero);
        (1, return Lattice.One);
        (4,
         map2
           (fun v b -> Lattice.Lit (v, if b then Cube.Pos else Cube.Neg))
           (int_range 0 (n - 1)) bool) ])

let gen_lattice =
  QCheck.Gen.(
    int_range 1 8 >>= fun n ->
    int_range 1 5 >>= fun rows ->
    int_range 1 5 >>= fun cols ->
    map
      (fun sites -> Lattice.make ~n_vars:n sites)
      (array_size (return rows) (array_size (return cols) (gen_site n))))

let arb_lattice = QCheck.make ~print:(Format.asprintf "%a" Lattice.pp) gen_lattice

let table_of_scalar n eval = Tt.of_fun_int n eval

let kernel_tests =
  [ qtest "eval_all = tabulated scalar BFS" arb_lattice (fun l ->
        let n = Lattice.n_vars l in
        Tt.equal (Lattice.eval_all l) (table_of_scalar n (Lattice.eval_int l)));
    qtest "eval_all_lr = tabulated scalar eval_lr" arb_lattice (fun l ->
        let n = Lattice.n_vars l in
        Tt.equal (Lattice.eval_all_lr l)
          (table_of_scalar n (Nxc_oracle.Lattice_ref.eval_lr l)));
    qtest "restricted n_vars matches low minterms" arb_lattice (fun l ->
        let n = Lattice.n_vars l in
        let k = max 0 (n - 2) in
        Tt.equal
          (Lattice.eval_all ~n_vars:k l)
          (table_of_scalar k (Lattice.eval_int l)));
    qtest "widened n_vars ignores extra variables" arb_lattice (fun l ->
        let n = Lattice.n_vars l in
        let wide = Lattice.eval_all ~n_vars:(n + 2) l in
        let narrow = Lattice.eval_all l in
        Testutil.same_function (n + 2)
          (Tt.eval_int wide)
          (fun m -> Tt.eval_int narrow (m land ((1 lsl n) - 1))));
    qtest "shared scratch is stateless across shapes" arb_lattice (fun l ->
        let scratch = Lattice.scratch () in
        (* interleave a differently-shaped call to dirty the buffers *)
        let other =
          Lattice.make ~n_vars:1 [| [| Lattice.One; Lattice.Zero |] |]
        in
        let first = Lattice.eval_all ~scratch l in
        ignore (Lattice.eval_all ~scratch other);
        ignore (Lattice.eval_all ~scratch ~n_vars:2 other);
        Tt.equal first (Lattice.eval_all ~scratch l)) ]

let lit v = Lattice.Lit (v, Cube.Pos)

let kernel_unit_tests =
  [ Alcotest.test_case "degenerate shapes" `Quick (fun () ->
        let row = Lattice.make ~n_vars:3 [| [| lit 0; lit 1; lit 2 |] |] in
        let col =
          Lattice.make ~n_vars:3 [| [| lit 0 |]; [| lit 1 |]; [| lit 2 |] |]
        in
        (* 1xk: any conducting site bridges top to bottom (OR);
           kx1: the whole column must conduct (AND) *)
        check "1xk is OR" true
          (Tt.equal (Lattice.eval_all row)
             (Tt.of_fun_int 3 (fun m -> m <> 0)));
        check "kx1 is AND" true
          (Tt.equal (Lattice.eval_all col)
             (Tt.of_fun_int 3 (fun m -> m = 7))));
    Alcotest.test_case "constant sites" `Quick (fun () ->
        let zero =
          Lattice.make ~n_vars:2 (Array.make_matrix 2 3 Lattice.Zero)
        in
        let one = Lattice.make ~n_vars:2 (Array.make_matrix 2 3 Lattice.One) in
        check "all-Zero" true (Tt.equal (Lattice.eval_all zero) (Testutil.tt_const 2 false));
        check "all-One" true (Tt.equal (Lattice.eval_all one) (Testutil.tt_const 2 true));
        let single = Lattice.make ~n_vars:0 [| [| Lattice.One |] |] in
        check "n=0 single One" true
          (Tt.equal (Lattice.eval_all single) (Testutil.tt_const 0 true)));
    Alcotest.test_case "snake path uses upward segments" `Quick (fun () ->
        let l =
          Lattice.make ~n_vars:1
            [| [| Lattice.One; Lattice.Zero; Lattice.One |];
               [| Lattice.One; Lattice.Zero; Lattice.One |];
               [| Lattice.One; Lattice.One; Lattice.One |] |]
        in
        check "snake conducts" true (Tt.eval_int (Lattice.eval_all l) 0)) ]

let () =
  Alcotest.run "bitslice"
    [ ("popcount", popcount_tests);
      ("bitvec-words", bitvec_tests);
      ("qm-bucketing", qm_tests);
      ("kernel", kernel_tests @ kernel_unit_tests) ]
