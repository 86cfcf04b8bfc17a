(* Unit tests for Nxc_guard and the budget/degradation behavior of the
   entry points that cooperate with it. *)

module G = Nxc_guard
module L = Nxc_logic
module Tt = L.Truth_table

let tt_of_cover c = Tt.of_cover c

(* ------------------------------------------------------------------ *)
(* Budget mechanics                                                    *)
(* ------------------------------------------------------------------ *)

let test_budget_steps () =
  let b = G.Budget.create ~steps:3 () in
  Alcotest.(check bool) "step 1" true (G.Budget.step b);
  Alcotest.(check bool) "step 2" true (G.Budget.step b);
  Alcotest.(check bool) "step 3" true (G.Budget.step b);
  Alcotest.(check bool) "step 4 trips" false (G.Budget.step b);
  Alcotest.(check bool) "sticky" false (G.Budget.step b);
  Alcotest.(check bool) "exhausted" true (G.Budget.exhausted b)

let test_budget_unlimited () =
  let b = G.Budget.create () in
  for _ = 1 to 10_000 do
    assert (G.Budget.step b)
  done;
  Alcotest.(check bool) "alive" true (G.Budget.alive b);
  Alcotest.(check int) "counted" 10_000 (G.Budget.steps_used b)

let test_budget_deadline_zero () =
  (* a zero deadline must trip at the very first step, deterministically *)
  let b = G.Budget.create ~deadline_ms:0.0 () in
  Alcotest.(check bool) "first step trips" false (G.Budget.step b);
  Alcotest.(check bool) "exhausted" true (G.Budget.exhausted b)

let test_budget_policy_view () =
  let b = G.Budget.create ~policy:G.Budget.Fail ~steps:2 () in
  let d = G.Budget.degrading b in
  Alcotest.(check bool) "view degrades" true (G.Budget.policy d = G.Budget.Degrade);
  Alcotest.(check bool) "original fails" true (G.Budget.policy b = G.Budget.Fail);
  (* accounting is shared between the views *)
  ignore (G.Budget.step d);
  ignore (G.Budget.step d);
  Alcotest.(check bool) "shared exhaustion" false (G.Budget.step b)

let test_ambient () =
  (* a budget's label is the one its exhaustion error carries *)
  let label b =
    match G.Budget.error b with
    | `Budget_exhausted { G.Error.label; _ } -> label
    | _ -> "?"
  in
  let b = G.Budget.create ~label:"scoped" ~steps:1 () in
  let inside = G.Budget.with_current b (fun () -> G.Budget.current ()) in
  Alcotest.(check string) "scoped label" "scoped" (label inside);
  Alcotest.(check string) "restored" "unlimited" (label (G.Budget.current ()));
  (* exception-safe restore *)
  (try G.Budget.with_current b (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check string) "restored after raise" "unlimited"
    (label (G.Budget.current ()))

let test_unlimited_not_written () =
  (* every domain without a budget of its own shares [unlimited]: its
     steps must not write the shared record *)
  let before = G.Budget.steps_used G.Budget.unlimited in
  let work () =
    for _ = 1 to 10_000 do
      assert (G.Budget.step G.Budget.unlimited)
    done;
    assert (G.Budget.charge G.Budget.unlimited 1_000)
  in
  let d = Domain.spawn work in
  work ();
  Domain.join d;
  Alcotest.(check int) "unlimited unchanged" before
    (G.Budget.steps_used G.Budget.unlimited);
  Alcotest.(check int) "never counted" 0 before

(* [charge g k] against [k] calls of [step] on a twin budget, after
   [pre] single steps on both, for caps below, at and above [k] *)
let charge_matches_steps =
  Testutil.qtest ~count:500 "charge k = k steps"
    QCheck.(
      quad (int_bound 40) (int_bound 10) (int_bound 40)
        (oneofl [ None; Some 0.0; Some 1e9 ]))
    (fun (cap, pre, k, deadline_ms) ->
      let make () = G.Budget.create ~steps:cap ?deadline_ms () in
      let a = make () and b = make () in
      for _ = 1 to pre do
        ignore (G.Budget.step a);
        ignore (G.Budget.step b)
      done;
      let charged = G.Budget.charge a k in
      let stepped = ref true in
      for _ = 1 to k do
        if not (G.Budget.step b) then stepped := false
      done;
      charged = !stepped
      && G.Budget.steps_used a = G.Budget.steps_used b
      && G.Budget.exhausted a = G.Budget.exhausted b)

let test_error_rendering () =
  Alcotest.(check string) "invalid input"
    "invalid input: bad byte (line 2, column 7)"
    (G.Error.to_string (G.Error.invalid_input ~line:2 ~column:7 "bad byte"));
  Alcotest.(check int) "exit invalid" 3
    (G.Error.exit_code (G.Error.invalid_input "x"));
  Alcotest.(check int) "exit unsat" 5 (G.Error.exit_code (G.Error.unsat "x"));
  Alcotest.(check int) "exit internal" 1
    (G.Error.exit_code (G.Error.internal "x"));
  let b = G.Budget.create ~steps:0 () in
  ignore (G.Budget.step b);
  Alcotest.(check int) "exit budget" 4 (G.Error.exit_code (G.Budget.error b))

(* ------------------------------------------------------------------ *)
(* Degradation keeps results function-equivalent                       *)
(* ------------------------------------------------------------------ *)

let qm_equiv_under_tiny_budget =
  Testutil.qtest ~count:100 "qm minimize degrades but stays equivalent"
    (Testutil.arb_table 4) (fun tt ->
      let guard = G.Budget.create ~steps:20 () in
      let cover, _stats =
        G.Budget.with_current guard (fun () -> L.Qm.minimize_table tt)
      in
      Tt.equal (tt_of_cover cover) tt)

let minimize_equiv_under_tiny_budget =
  Testutil.qtest ~count:100 "sop_table with a dead guard stays equivalent"
    (Testutil.arb_table_sized 5) (fun tt ->
      let guard = G.Budget.create ~steps:0 () in
      let cover =
        G.Budget.with_current guard (fun () -> L.Minimize.sop_table tt)
      in
      Tt.equal (tt_of_cover cover) tt)

let test_minimize_result_fail_policy () =
  (* an exhausted Fail-policy guard must surface as a typed error *)
  let tt = Nxc_oracle.Logic_ref.random_table 6 ~seed:7 in
  let guard = G.Budget.create ~policy:G.Budget.Fail ~steps:5 () in
  match
    G.Budget.with_current guard (fun () ->
        L.Minimize.sop_result (L.Boolfunc.make tt))
  with
  | Error (`Budget_exhausted _) -> ()
  | Error e -> Alcotest.failf "unexpected error: %s" (G.Error.to_string e)
  | Ok _ -> Alcotest.fail "expected budget exhaustion"

let test_minimize_result_degrade_policy () =
  let tt = Nxc_oracle.Logic_ref.random_table 6 ~seed:7 in
  let guard = G.Budget.create ~steps:5 () in
  match
    G.Budget.with_current guard (fun () ->
        L.Minimize.sop_result (L.Boolfunc.make tt))
  with
  | Ok { L.Minimize.cover; degraded } ->
      Alcotest.(check bool) "degraded" true degraded;
      Alcotest.(check bool) "equivalent" true (Tt.equal (tt_of_cover cover) tt)
  | Error e -> Alcotest.failf "unexpected error: %s" (G.Error.to_string e)

let test_determinism () =
  (* same input, same budget -> identical cover and step accounting *)
  let tt = Nxc_oracle.Logic_ref.random_table 5 ~seed:99 in
  let run () =
    let guard = G.Budget.create ~steps:50 () in
    let cover, _ =
      G.Budget.with_current guard (fun () -> L.Qm.minimize_table tt)
    in
    (List.map Testutil.cube_to_string (L.Cover.cubes cover), G.Budget.steps_used guard)
  in
  let a = run () and b = run () in
  Alcotest.(check (pair (list string) int)) "identical runs" a b

(* ------------------------------------------------------------------ *)
(* Parser hardening                                                    *)
(* ------------------------------------------------------------------ *)

let check_invalid name s =
  match L.Parse.expr_result s with
  | Error (`Invalid_input _) -> ()
  | Error e -> Alcotest.failf "%s: wrong error %s" name (G.Error.to_string e)
  | Ok _ -> Alcotest.failf "%s: expected a parse error" name

let test_parse_rejects () =
  check_invalid "bare x" "x";
  check_invalid "zero index" "x0 + x1";
  check_invalid "trailing" "x1 x2 )";
  check_invalid "non-ascii" "x1 \xc3\xa9 x2";
  check_invalid "control byte" "x1 \x01 x2";
  check_invalid "huge index" "x9999999";
  check_invalid "overlong" ("x1 + " ^ String.make 70_000 ' ' ^ "x2");
  (match L.Parse.expr ~n:0 "x1" with
  | exception L.Parse.Parse_error _ -> ()
  | _ -> Alcotest.fail "forced arity below used variables must fail");
  (* column is reported for located errors *)
  match L.Parse.expr_result "x1 ? x2" with
  | Error (`Invalid_input { G.Error.column = Some 4; _ }) -> ()
  | Error (`Invalid_input { G.Error.column; _ }) ->
      Alcotest.failf "wrong column: %s"
        (match column with None -> "none" | Some c -> string_of_int c)
  | _ -> Alcotest.fail "expected a located error"

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_parse_legacy_exception () =
  (match L.Parse.expr "x1 +" with
  | exception L.Parse.Parse_error _ -> ()
  | _ -> Alcotest.fail "legacy API must raise Parse_error");
  match L.Parse.pla_of_string_result ".i 2\n.o 1\nzz 1\n.e\n" with
  | Error e ->
      Alcotest.(check bool) "message carries the line" true
        (contains (G.Error.to_string e) "line 3")
  | Ok _ -> Alcotest.fail "malformed PLA must be rejected"

let test_pla_rejects () =
  let bad = [
    ("missing .i", ".o 1\n1 1\n.e\n");
    ("missing .o", ".i 1\n1 1\n.e\n");
    ("bad .i value", ".i lots\n.o 1\n1 1\n.e\n");
    ("zero inputs", ".i 0\n.o 1\n 1\n.e\n");
    ("wider than a truth table",
     Printf.sprintf ".i %d\n.o 1\n%s 1\n.e\n" (Tt.max_vars + 1)
       (String.make (Tt.max_vars + 1) '-'));
    ("width mismatch", ".i 3\n.o 1\n10 1\n.e\n");
    ("output width", ".i 2\n.o 2\n10 1\n.e\n");
    ("bad output char", ".i 2\n.o 1\n10 x\n.e\n");
    ("unknown directive", ".i 2\n.o 1\n.bogus\n10 1\n.e\n");
    ("ilb arity", ".i 2\n.o 1\n.ilb a\n10 1\n.e\n");
  ] in
  List.iter
    (fun (name, text) ->
      match L.Parse.pla_of_string_result text with
      | Error (`Invalid_input _) -> ()
      | Error e ->
          Alcotest.failf "%s: wrong error %s" name (G.Error.to_string e)
      | Ok _ -> Alcotest.failf "%s: expected rejection" name)
    bad

(* ------------------------------------------------------------------ *)
(* Flow robustness                                                     *)
(* ------------------------------------------------------------------ *)

module R = Nxc_reliability
module C = Nxc_core

let test_flow_infeasible_chip () =
  let f = L.Parse.expr "x1x2 + x3" in
  let chip =
    R.Defect.generate (R.Rng.create 1) ~rows:1 ~cols:1 (R.Defect.uniform 0.0)
  in
  let r = C.Flow.run (R.Rng.create 2) ~chip f in
  Alcotest.(check bool) "not functional" false r.C.Flow.functional;
  Alcotest.(check bool) "no mapping" true (r.C.Flow.mapping = None);
  match C.Flow.run_result (R.Rng.create 2) ~chip f with
  | Ok r ->
      Alcotest.(check bool) "result not functional" false r.C.Flow.functional
  | Error e -> Alcotest.failf "unexpected error: %s" (G.Error.to_string e)

let test_flow_all_defective () =
  let f = L.Parse.expr "x1 ^ x2" in
  let chip =
    R.Defect.generate (R.Rng.create 3) ~rows:8 ~cols:8 (R.Defect.uniform 1.0)
  in
  match C.Flow.run_result (R.Rng.create 4) ~chip f with
  | Ok r ->
      Alcotest.(check bool) "not functional" false r.C.Flow.functional;
      Alcotest.(check bool) "no mapping" true (r.C.Flow.mapping = None)
  | Error e -> Alcotest.failf "unexpected error: %s" (G.Error.to_string e)

let test_flow_budget_fail_policy () =
  let f = L.Parse.expr "x1 ^ x2" in
  let chip =
    R.Defect.generate (R.Rng.create 3) ~rows:8 ~cols:8 (R.Defect.uniform 1.0)
  in
  let guard = G.Budget.create ~policy:G.Budget.Fail ~steps:10 () in
  match
    G.Budget.with_current guard (fun () ->
        C.Flow.run_result (R.Rng.create 4) ~chip f)
  with
  | Error (`Budget_exhausted _) -> ()
  | Error e -> Alcotest.failf "unexpected error: %s" (G.Error.to_string e)
  | Ok r ->
      (* acceptable only if it mapped before the budget ran out *)
      Alcotest.(check bool) "mapped in budget" true
        (r.C.Flow.mapping <> None || not (G.Budget.exhausted guard))

let test_bism_guard_winds_down () =
  let chip =
    R.Defect.generate (R.Rng.create 5) ~rows:16 ~cols:16 (R.Defect.uniform 1.0)
  in
  let guard = G.Budget.create ~steps:7 () in
  let stats, mapping =
    G.Budget.with_current guard (fun () ->
        R.Bism.run (R.Rng.create 6) R.Bism.Blind ~chip ~k_rows:4 ~k_cols:4
          ~max_configs:1_000_000)
  in
  Alcotest.(check bool) "no mapping" true (mapping = None);
  Alcotest.(check bool) "stopped early" true (stats.R.Bism.configurations <= 7)

let test_exact_max_degrades () =
  (* a dead guard forces the greedy fallback; the selection must still
     be defect-free *)
  let chip =
    R.Defect.generate (R.Rng.create 8) ~rows:10 ~cols:10 (R.Defect.uniform 0.2)
  in
  let guard = G.Budget.create ~steps:0 () in
  ignore (G.Budget.step guard);
  let sel =
    G.Budget.with_current guard (fun () -> R.Defect_flow.exact_max chip)
  in
  Alcotest.(check bool) "defect-free" true (Nxc_oracle.Assign_ref.selection_defect_free chip sel)

(* ------------------------------------------------------------------ *)
(* The ambient budget is the only channel                              *)
(* ------------------------------------------------------------------ *)

let degrade_count site =
  Nxc_obs.Metrics.(counter_value (counter ("guard.degrade." ^ site)))

(* [f ()] and whether it bumped [guard.degrade.<site>] *)
let bumping site f =
  let before = degrade_count site in
  let r = f () in
  (r, degrade_count site > before)

let budget_error = function Error (`Budget_exhausted _) -> true | _ -> false

(* Every entry point that charges a budget, one row each.  A row runs
   its entry point under the ambient budget and says whether the
   documented outcome for that budget's policy held: a typed
   [`Budget_exhausted], an inconclusive answer ([Unknown], [None], no
   mapping), or a correct result plus a [guard.degrade.*] bump.  Inputs
   are built before the starved budget is installed. *)
let starved_rows () =
  let f = L.Parse.expr "x1x2 + x2x3 + x1x3" in
  let tt = L.Boolfunc.table f in
  let n = Tt.n_vars tt and on = Tt.minterms tt in
  let primes = Array.of_list (L.Qm.primes ~n ~on) in
  let covered_by = Nxc_oracle.Logic_ref.covered_by primes on in
  let equiv cover = Tt.equal (tt_of_cover cover) tt in
  let rng () = R.Rng.create 5 in
  let chip =
    R.Defect.generate (R.Rng.create 77) ~rows:10 ~cols:10
      (R.Defect.uniform 0.05)
  in
  let profile = R.Defect.uniform 0.3 in
  let lattice = Nxc_lattice.Altun_riedel.synthesize f in
  let ambient_dead () = not (G.Budget.step (G.Budget.current ())) in
  let fail p = p = G.Budget.Fail in
  [ ( "Solver.solve",
      fun _ ->
        let s = Nxc_sat.Solver.create () in
        Nxc_sat.Solver.add_clause s [ Nxc_sat.Solver.new_var s ];
        Nxc_sat.Solver.solve s = Nxc_sat.Solver.Unknown );
    ( "Sat_cover.min_cover",
      fun _ ->
        budget_error
          (L.Sat_cover.min_cover ~num_sets:(Array.length primes) ~covered_by
             ~bound:1 ()) );
    ( "Qm.cover_exact",
      fun _ ->
        let _, exact, _ =
          L.Qm.cover_exact ~budget:1000 ~num_sets:(Array.length primes)
            ~covered_by ~witness:[ 0 ]
        in
        not exact );
    ("Qm.minimize_result", fun _ -> budget_error (L.Qm.minimize_result ~n on));
    ( "Qm.minimize_table",
      fun _ ->
        let (c, _), b =
          bumping "qm_to_isop" (fun () -> L.Qm.minimize_table tt)
        in
        b && equiv c );
    ( "Minimize.sop",
      fun _ ->
        let c, b = bumping "qm_to_isop" (fun () -> L.Minimize.sop f) in
        b && equiv c );
    ( "Minimize.sop_table",
      fun _ ->
        let c, b = bumping "qm_to_isop" (fun () -> L.Minimize.sop_table tt) in
        b && equiv c );
    ( "Minimize.dual_sop",
      fun _ ->
        let c, b = bumping "qm_to_isop" (fun () -> L.Minimize.dual_sop f) in
        b && Tt.equal (tt_of_cover c) (L.Boolfunc.table (L.Boolfunc.dual f)) );
    ( "Minimize.sop_result",
      fun p ->
        match bumping "qm_to_isop" (fun () -> L.Minimize.sop_result f) with
        | r, _ when fail p -> budget_error r
        | Ok { L.Minimize.cover; degraded }, b -> b && degraded && equiv cover
        | Error _, _ -> false );
    ( "Npn.canonical",
      fun _ ->
        let (t, g), b = bumping "npn_semi" (fun () -> L.Npn.canonical tt) in
        b && Tt.equal (L.Npn.apply t tt) g );
    ( "Optimal.search",
      fun _ ->
        Nxc_lattice.Optimal.search f = Nxc_lattice.Optimal.Budget_exhausted );
    ( "Optimal.minimum_area",
      fun _ -> Nxc_lattice.Optimal.minimum_area f = None );
    ( "Pool.map_range",
      fun _ ->
        Nxc_par.Pool.map_range 3 (fun _ -> ambient_dead ())
        = [| true; true; true |] );
    ( "Pool.map",
      fun _ ->
        Nxc_par.Pool.map (fun _ -> ambient_dead ()) [ 1; 2 ] = [ true; true ]
    );
    ( "Rng.map_trials",
      fun _ ->
        R.Rng.map_trials (rng ()) ~trials:3 (fun _ -> ambient_dead ())
        = [| true; true; true |] );
    ( "Bism.run",
      fun _ ->
        let stats, m =
          R.Bism.run (rng ()) R.Bism.Blind ~chip ~k_rows:4 ~k_cols:4
            ~max_configs:100
        in
        m = None && stats.R.Bism.configurations = 0 );
    ( "Bism.monte_carlo",
      fun _ ->
        let mc, _ =
          R.Bism.monte_carlo (rng ()) R.Bism.Blind ~trials:3 ~n:8 ~profile
            ~k_rows:4 ~k_cols:4 ~max_configs:10
        in
        mc.R.Bism.mc_mapped = 0 );
    ( "Bira.analyze",
      fun p ->
        match
          bumping "bira_exact_to_greedy" (fun () ->
              R.Bira.analyze chip ~spare_rows:3 ~spare_cols:3)
        with
        | r, _ when fail p -> budget_error r
        | Ok sol, b -> b && sol.R.Bira.degraded
        | Error (`Unsat _), b -> b (* the greedy fallback may miss *)
        | Error _, _ -> false );
    ("Bira.defect_matching", fun _ -> R.Bira.defect_matching chip = None);
    ( "Bira.greedy_survivors",
      fun _ ->
        R.Bira.greedy_survivors chip ~spare_rows:3 ~spare_cols:3
        = `Out_of_budget );
    ( "Bira.monte_carlo",
      fun _ ->
        (* trials run under a Degrade view whatever the policy *)
        let (mc, _), b =
          bumping "bira_exact_to_greedy" (fun () ->
              R.Bira.monte_carlo (rng ()) ~trials:3 ~rows:6 ~cols:6
                ~spare_rows:2 ~spare_cols:2 ~profile:(R.Defect.uniform 0.05))
        in
        b && mc.R.Bira.mc_degraded = mc.R.Bira.mc_repaired );
    ( "Sat_assign.decide",
      fun p ->
        match
          bumping "sat_to_greedy" (fun () ->
              R.Sat_assign.decide chip ~k_rows:6 ~k_cols:6)
        with
        | r, _ when fail p -> budget_error r
        | Ok (R.Sat_assign.Degraded _), b -> b
        | _ -> false );
    ( "Sat_assign.monte_carlo",
      fun _ ->
        (* trials run under a Degrade view whatever the policy *)
        let mc =
          R.Sat_assign.monte_carlo (rng ()) ~trials:3 ~n:8 ~profile ~k_rows:4
            ~k_cols:4
        in
        mc.R.Sat_assign.sa_degraded = 3 );
    ( "Defect_flow.exact_max",
      fun _ ->
        let sel, b =
          bumping "exact_to_greedy" (fun () -> R.Defect_flow.exact_max chip)
        in
        b && Nxc_oracle.Assign_ref.selection_defect_free chip sel );
    ( "Defect_flow.place_lattice",
      fun _ ->
        R.Defect_flow.place_lattice (rng ()) chip lattice ~attempts:10 = None );
    ( "Defect_flow.placement_sweep",
      fun _ ->
        let s =
          R.Defect_flow.placement_sweep (rng ()) ~lattice ~chips:2 ~n:8 ~profile
            ~attempts:5
        in
        s.R.Defect_flow.placed_aware = 0 );
    ( "Synth.synthesize",
      fun _ ->
        let impl = C.Synth.synthesize f in
        impl.C.Synth.degraded && C.Synth.verify impl );
    ( "Synth.synthesize_result",
      fun p ->
        match C.Synth.synthesize_result f with
        | r when fail p -> budget_error r
        | Ok impl -> impl.C.Synth.degraded && C.Synth.verify impl
        | Error _ -> false );
    ( "Flow.run_result",
      fun p ->
        match C.Flow.run_result (rng ()) ~chip f with
        | r when fail p -> budget_error r
        | Ok r -> r.C.Flow.impl.C.Synth.degraded && r.C.Flow.mapping = None
        | Error _ -> false );
    ( "Flow.run",
      fun _ ->
        let r = C.Flow.run (rng ()) ~chip f in
        r.C.Flow.impl.C.Synth.degraded && r.C.Flow.mapping = None ) ]

let test_starved_entry_points () =
  List.iter
    (fun (name, run) ->
      List.iter
        (fun (policy, pname) ->
          let b = G.Budget.create ~label:"starved" ~policy ~steps:0 () in
          let ok = G.Budget.with_current b (fun () -> run policy) in
          Alcotest.(check bool)
            (Printf.sprintf "%s, %s: outcome" name pname)
            true ok;
          Alcotest.(check bool)
            (Printf.sprintf "%s, %s: charged the ambient budget" name pname)
            true (G.Budget.exhausted b))
        [ (G.Budget.Fail, "fail"); (G.Budget.Degrade, "degrade") ])
    (starved_rows ())

let () =
  Alcotest.run "guard"
    [ ("budget",
       [ Alcotest.test_case "steps" `Quick test_budget_steps;
         Alcotest.test_case "unlimited" `Quick test_budget_unlimited;
         Alcotest.test_case "deadline zero" `Quick test_budget_deadline_zero;
         Alcotest.test_case "policy view" `Quick test_budget_policy_view;
         Alcotest.test_case "ambient" `Quick test_ambient;
         Alcotest.test_case "errors" `Quick test_error_rendering;
         Alcotest.test_case "unlimited is not written" `Quick
           test_unlimited_not_written;
         charge_matches_steps ]);
      ("degradation",
       [ qm_equiv_under_tiny_budget;
         minimize_equiv_under_tiny_budget;
         Alcotest.test_case "fail policy" `Quick test_minimize_result_fail_policy;
         Alcotest.test_case "degrade policy" `Quick
           test_minimize_result_degrade_policy;
         Alcotest.test_case "determinism" `Quick test_determinism ]);
      ("parse",
       [ Alcotest.test_case "expr rejects" `Quick test_parse_rejects;
         Alcotest.test_case "legacy exception" `Quick test_parse_legacy_exception;
         Alcotest.test_case "pla rejects" `Quick test_pla_rejects ]);
      ("flow",
       [ Alcotest.test_case "infeasible chip" `Quick test_flow_infeasible_chip;
         Alcotest.test_case "all defective" `Quick test_flow_all_defective;
         Alcotest.test_case "fail policy" `Quick test_flow_budget_fail_policy;
         Alcotest.test_case "bism winds down" `Quick test_bism_guard_winds_down;
         Alcotest.test_case "exact_max degrades" `Quick test_exact_max_degrades ]);
      ("ambient",
       [ Alcotest.test_case "every entry point under a starved budget" `Quick
           test_starved_entry_points ]) ]
