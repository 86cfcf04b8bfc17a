(* Tests for the BIRA spare-repair layer: must-repair analysis, exact
   vs greedy spare allocation, the logical array a repair leaves, and
   the Monte-Carlo repair sweep. *)

open Nxc_reliability

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let qtest = Testutil.qtest
let ( ==> ) = QCheck.( ==> )

(* a random small physical chip plus spare budgets, described by plain
   ints so counterexamples print usefully *)
type scenario = {
  sc_rows : int;  (* logical *)
  sc_cols : int;
  sc_spare_rows : int;
  sc_spare_cols : int;
  sc_density_pct : int;
  sc_seed : int;
}

let scenario_chip sc =
  Defect.generate
    (Rng.create sc.sc_seed)
    ~rows:(sc.sc_rows + sc.sc_spare_rows)
    ~cols:(sc.sc_cols + sc.sc_spare_cols)
    (Defect.uniform (float_of_int sc.sc_density_pct /. 100.0))

let arb_scenario =
  let gen =
    QCheck.Gen.(
      map
        (fun (rows, cols, (sr, sc), density, seed) ->
          { sc_rows = rows; sc_cols = cols; sc_spare_rows = sr;
            sc_spare_cols = sc; sc_density_pct = density; sc_seed = seed })
        (tup5 (int_range 2 8) (int_range 2 8)
           (pair (int_range 0 3) (int_range 0 3))
           (int_range 0 20) (int_range 0 10_000)))
  in
  let print sc =
    Printf.sprintf "%dx%d +%d/%d spares, %d%% defects, seed %d" sc.sc_rows
      sc.sc_cols sc.sc_spare_rows sc.sc_spare_cols sc.sc_density_pct sc.sc_seed
  in
  QCheck.make ~print gen

let spares_used (s : Bira.solution) =
  List.length s.repair_rows + List.length s.repair_cols

let analyze ?mode sc =
  Bira.analyze ?mode (scenario_chip sc) ~spare_rows:sc.sc_spare_rows
    ~spare_cols:sc.sc_spare_cols

(* law (a): a successful repair really is a repair — the logical array
   of its surviving lines (logical line i = i-th unreplaced physical
   line) survives the application-independent BIST oracle *)
let law_repair_is_defect_free =
  qtest "BIRA success => BISR remap is defect-free" arb_scenario (fun sc ->
      match analyze sc with
      | Error _ -> true (* vacuous: no solution claimed *)
      | Ok sol -> (
          let chip = scenario_chip sc in
          match
            Nxc_oracle.Assign_ref.repaired_array chip ~rows:sc.sc_rows
              ~cols:sc.sc_cols sol
          with
          | None -> false (* a valid solution always leaves the array *)
          | Some m -> Bism.mapping_defect_free chip m))

(* law (b), part 1: exact dominates greedy on success — any chip greedy
   can repair, exact can too *)
let law_exact_dominates_greedy =
  qtest "exact succeeds wherever greedy does" arb_scenario (fun sc ->
      match analyze ~mode:Bira.Greedy sc with
      | Error _ -> true
      | Ok _ -> Result.is_ok (analyze ~mode:Bira.Exact sc))

(* law (b), part 2: when both succeed, exact never spends more lines *)
let law_exact_is_minimal =
  qtest "exact never repairs more lines than greedy" arb_scenario (fun sc ->
      match (analyze ~mode:Bira.Exact sc, analyze ~mode:Bira.Greedy sc) with
      | Ok exact, Ok greedy ->
          (not exact.Bira.degraded)
          ==> (spares_used exact <= spares_used greedy)
      | _ -> true)

(* law (c): must-repair lines are forced, so they appear in every
   reported solution, whichever allocator produced it *)
let law_must_repair_is_forced =
  qtest "must-repair lines appear in every solution" arb_scenario (fun sc ->
      let subset xs ys = List.for_all (fun x -> List.mem x ys) xs in
      let holds = function
        | Error _ -> true
        | Ok sol ->
            subset sol.Bira.must_rows sol.Bira.repair_rows
            && subset sol.Bira.must_cols sol.Bira.repair_cols
      in
      holds (analyze ~mode:Bira.Exact sc) && holds (analyze ~mode:Bira.Greedy sc))

(* law (d): the matching bound prunes only subtrees with no strictly
   smaller repair, so exact BIRA returns the very repair the unbounded
   reference search finds first, and fails exactly where it finds none *)
let law_exact_matches_reference =
  qtest "exact BIRA = the unbounded reference search" arb_scenario (fun sc ->
      let chip = scenario_chip sc in
      let reference =
        Nxc_oracle.Assign_ref.bira_exact chip ~spare_rows:sc.sc_spare_rows
          ~spare_cols:sc.sc_spare_cols
      in
      match (analyze ~mode:Bira.Exact sc, reference) with
      | Ok sol, Some (rows, cols) ->
          sol.Bira.degraded
          || (sol.Bira.repair_rows = rows && sol.Bira.repair_cols = cols)
      | Error (`Unsat _), None -> true
      | _ -> false)

let law_tests =
  [ law_repair_is_defect_free; law_exact_dominates_greedy; law_exact_is_minimal;
    law_must_repair_is_forced; law_exact_matches_reference ]

(* ------------------------------------------------------------------ *)
(* directed BIRA scenarios                                             *)
(* ------------------------------------------------------------------ *)

let with_defects cells chip =
  List.fold_left
    (fun m (r, c) -> Defect.with_defect m r c Defect.Stuck_open)
    chip cells

let bira_tests =
  [
    Alcotest.test_case "perfect chip repairs with zero spares used" `Quick
      (fun () ->
        let chip = Defect.perfect ~rows:6 ~cols:6 in
        match Bira.analyze chip ~spare_rows:1 ~spare_cols:1 with
        | Ok sol ->
            check_int "no lines" 0 (spares_used sol);
            check "no musts" true (sol.Bira.must_rows = [] && sol.Bira.must_cols = [])
        | Error _ -> Alcotest.fail "perfect chip must repair");
    Alcotest.test_case "a loaded row is must-repair" `Quick (fun () ->
        (* row 2 has 3 defects but only 1 spare column exists *)
        let chip =
          with_defects [ (2, 0); (2, 1); (2, 2) ] (Defect.perfect ~rows:5 ~cols:5)
        in
        match Bira.analyze chip ~spare_rows:1 ~spare_cols:1 with
        | Ok sol ->
            check "row 2 forced" true (List.mem 2 sol.Bira.must_rows);
            check "row 2 repaired" true (List.mem 2 sol.Bira.repair_rows)
        | Error _ -> Alcotest.fail "repairable with one spare row");
    Alcotest.test_case "unrepairable diagonal is Unsat" `Quick (fun () ->
        (* 3 isolated defects need 3 lines; only 1 spare exists *)
        let chip =
          with_defects [ (0, 0); (1, 1); (2, 2) ] (Defect.perfect ~rows:5 ~cols:5)
        in
        match Bira.analyze chip ~spare_rows:1 ~spare_cols:0 with
        | Error (`Unsat _) -> ()
        | Error _ -> Alcotest.fail "expected `Unsat"
        | Ok _ -> Alcotest.fail "cannot cover 3 isolated defects with 1 line");
    Alcotest.test_case "defective spare lines are handled" `Quick (fun () ->
        (* the spare row (index 4) is itself defective: repairing must
           route around it, not use it blindly *)
        let chip =
          with_defects
            [ (0, 0); (0, 1); (0, 2); (4, 3) ]
            (Defect.perfect ~rows:5 ~cols:5)
        in
        match Bira.analyze chip ~spare_rows:1 ~spare_cols:1 with
        | Ok sol -> (
            match Nxc_oracle.Assign_ref.repaired_array chip ~rows:4 ~cols:4 sol with
            | Some m -> check "remap clean" true (Bism.mapping_defect_free chip m)
            | None -> Alcotest.fail "solution must leave a 4x4 array")
        | Error _ -> Alcotest.fail "repairable: delete row 0 and col 3");
    Alcotest.test_case "negative spares are invalid input" `Quick (fun () ->
        match
          Bira.analyze (Defect.perfect ~rows:4 ~cols:4) ~spare_rows:(-1)
            ~spare_cols:0
        with
        | Error (`Invalid_input _) -> ()
        | Error _ | Ok _ -> Alcotest.fail "expected `Invalid_input");
    Alcotest.test_case "spares must leave a logical array" `Quick (fun () ->
        match
          Bira.analyze (Defect.perfect ~rows:4 ~cols:4) ~spare_rows:4
            ~spare_cols:0
        with
        | Error (`Invalid_input _) -> ()
        | Error _ | Ok _ -> Alcotest.fail "expected `Invalid_input");
    Alcotest.test_case "exact degrades to greedy under a dead guard" `Quick
      (fun () ->
        let chip =
          Defect.generate (Rng.create 77) ~rows:10 ~cols:10
            (Defect.uniform 0.05)
        in
        let g =
          Nxc_guard.Budget.create ~label:"test" ~steps:1
            ~policy:Nxc_guard.Budget.Degrade ()
        in
        match
          Nxc_guard.Budget.with_current g (fun () ->
              Bira.analyze chip ~spare_rows:3 ~spare_cols:3)
        with
        | Ok sol -> check "marked degraded" true sol.Bira.degraded
        | Error (`Unsat _) -> () (* greedy fallback may legitimately fail *)
        | Error e ->
            Alcotest.failf "unexpected error: %s" (Nxc_guard.Error.to_string e));
    Alcotest.test_case "fail policy surfaces budget exhaustion" `Quick
      (fun () ->
        let chip =
          Defect.generate (Rng.create 78) ~rows:10 ~cols:10
            (Defect.uniform 0.08)
        in
        let g =
          Nxc_guard.Budget.create ~label:"test" ~steps:1
            ~policy:Nxc_guard.Budget.Fail ()
        in
        match
          Nxc_guard.Budget.with_current g (fun () ->
              Bira.analyze chip ~spare_rows:3 ~spare_cols:3)
        with
        | Error (`Budget_exhausted _) -> ()
        | Error e ->
            Alcotest.failf "expected `Budget_exhausted, got %s"
              (Nxc_guard.Error.to_string e)
        | Ok _ -> Alcotest.fail "one step cannot finish the exact search");
  ]

(* ------------------------------------------------------------------ *)
(* the Monte-Carlo harness                                             *)
(* ------------------------------------------------------------------ *)

let flow_tests =
  [
    Alcotest.test_case "monte_carlo is pool-identical" `Quick (fun () ->
        let run pool =
          Bira.monte_carlo ?pool (Rng.create 5) ~trials:24 ~rows:8 ~cols:8
            ~spare_rows:2 ~spare_cols:2 ~profile:(Defect.uniform 0.04)
        in
        let seq, seq_per = run None in
        let pool = Nxc_par.Pool.create ~workers:3 () in
        let par, par_per =
          Fun.protect
            ~finally:(fun () -> Nxc_par.Pool.shutdown pool)
            (fun () -> run (Some pool))
        in
        check "aggregate identical" true (seq = par);
        check "per-trial identical" true (seq_per = par_per));
    Alcotest.test_case "monte_carlo validates inputs" `Quick (fun () ->
        let bad f = match f () with
          | exception Invalid_argument _ -> true
          | _ -> false
        in
        check "trials" true
          (bad (fun () ->
               Bira.monte_carlo (Rng.create 1) ~trials:0 ~rows:4 ~cols:4
                 ~spare_rows:1 ~spare_cols:1 ~profile:(Defect.uniform 0.1)));
        check "spares" true
          (bad (fun () ->
               Bira.monte_carlo (Rng.create 1) ~trials:4 ~rows:4 ~cols:4
                 ~spare_rows:(-1) ~spare_cols:1 ~profile:(Defect.uniform 0.1))));
    Alcotest.test_case "spare overhead accounting" `Quick (fun () ->
        let o =
          Nxc_crossbar.Metrics.spare_overhead ~rows:10 ~cols:10 ~spare_rows:2
            ~spare_cols:0
        in
        (* 12x10 over 10x10 = +20% *)
        check "20%" true (abs_float (o.Nxc_crossbar.Metrics.area_overhead -. 0.2) < 1e-9);
        let z =
          Nxc_crossbar.Metrics.spare_overhead ~rows:10 ~cols:10 ~spare_rows:0
            ~spare_cols:0
        in
        check "free" true (z.Nxc_crossbar.Metrics.area_overhead = 0.0));
  ]

let () =
  Alcotest.run "repair"
    [
      ("laws", law_tests);
      ("bira", bira_tests);
      ("flow", flow_tests);
    ]
