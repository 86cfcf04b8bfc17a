(* Tests for the extension modules: multi-output crossbars, lattice
   trimming, transient-fault tolerance (TMR), BIST vector minimization
   and defect-aware lattice placement. *)

open Nxc_logic
module Lt = Nxc_lattice
module X = Nxc_crossbar
module R = Nxc_reliability
module U = Testutil
module Paths = Nxc_oracle.Paths
module Tt = Truth_table

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let arb_nonconst n =
  QCheck.map
    ~rev:Boolfunc.table
    (fun tt ->
      match Tt.is_const tt with
      | None -> Boolfunc.make tt
      | Some _ -> Boolfunc.make (Testutil.tt_var n 0))
    (U.arb_table n)

(* ------------------------------------------------------------------ *)
(* Multi-output crossbar                                               *)
(* ------------------------------------------------------------------ *)

let multi_eval_ok fs x =
  let k = List.length fs in
  let n = Boolfunc.n_vars (List.hd fs) in
  let rec go m =
    m >= 1 lsl n
    || (let out = X.Multi.eval_int x m in
        List.for_all
          (fun o -> out.(o) = Boolfunc.eval_int (List.nth fs o) m)
          (List.init k Fun.id)
        && go (m + 1))
  in
  go 0

let multi_tests =
  [
    Alcotest.test_case "adder outputs share products" `Quick (fun () ->
        let add2 =
          List.find
            (fun m -> m.Nxc_suite.multi_name = "add2")
            (Nxc_suite.multi_output ())
        in
        let fs = add2.Nxc_suite.outputs in
        let x = X.Multi.synthesize fs in
        check "computes all outputs" true (multi_eval_ok fs x);
        (* sharing saves AND-plane products (programmable rows), the
           paper's size currency; dedicated small arrays can still win
           on raw crosspoints because they route fewer literal columns *)
        let sep_products =
          List.fold_left
            (fun acc f -> acc + Cover.num_cubes (Minimize.sop f))
            0 fs
        in
        check "sharing never needs more products" true
          (X.Multi.num_products x <= sep_products));
    Alcotest.test_case "rd53 multi-output" `Quick (fun () ->
        let rd53 =
          List.find
            (fun m -> m.Nxc_suite.multi_name = "rd53")
            (Nxc_suite.multi_output ())
        in
        let fs = rd53.Nxc_suite.outputs in
        let x = X.Multi.synthesize fs in
        check "computes all outputs" true (multi_eval_ok fs x));
    Alcotest.test_case "identical outputs collapse to one OR-plane row set"
      `Quick (fun () ->
        let f = Parse.expr "x1x2 + x3" in
        let x = X.Multi.synthesize [ f; f; f ] in
        (* all three output columns driven by the same shared products *)
        check_int "products not tripled" (X.Multi.num_products x)
          (Cover.num_cubes (Minimize.sop f));
        check "computes" true (multi_eval_ok [ f; f; f ] x));
    Alcotest.test_case "rejects mixed arity and constants" `Quick (fun () ->
        check "arity" true
          (match X.Multi.synthesize [ Parse.expr "x1"; Parse.expr "x1x2" ] with
          | exception Invalid_argument _ -> true
          | _ -> false);
        check "constant" true
          (match
             X.Multi.synthesize
               [ Parse.expr "x1"; Boolfunc.of_fun_int 1 (fun _ -> true) ]
           with
          | exception Invalid_argument _ -> true
          | _ -> false));
    U.qtest ~count:60 "random output vectors compute correctly"
      QCheck.(pair (arb_nonconst 4) (arb_nonconst 4))
      (fun (f, g) -> multi_eval_ok [ f; g ] (X.Multi.synthesize [ f; g ]));
  ]

(* ------------------------------------------------------------------ *)
(* Lattice trimming                                                    *)
(* ------------------------------------------------------------------ *)

let trim_tests =
  [
    Alcotest.test_case "padding slack is recovered" `Quick (fun () ->
        let f = Parse.expr "x1x2 + x1'x2'" in
        let l = Lt.Altun_riedel.synthesize f in
        let padded = Lt.Compose.pad_to_rows (Lt.Compose.pad_to_cols l 5) 6 in
        let trimmed = Lt.Trim.trim padded f in
        let removed = Lt.Lattice.area padded - Lt.Lattice.area trimmed in
        check "still equivalent" true (Lt.Checker.equivalent trimmed f);
        check "all slack gone" true
          (Lt.Lattice.area trimmed <= Lt.Lattice.area l);
        check "removed counted" true (removed > 0));
    Alcotest.test_case "drop_row refuses single row" `Quick (fun () ->
        let l = Lt.Compose.of_const 2 true in
        check "none" true
          (Lt.Lattice.rows (Lt.Trim.trim l (Boolfunc.make (Testutil.tt_const 2 true))) = 1));
    U.qtest ~count:60 "trim preserves the function and never grows"
      (arb_nonconst 4)
      (fun f ->
        let l = Lt.Decompose_synth.synthesize f in
        let t = Lt.Trim.trim l f in
        Lt.Checker.equivalent t f && Lt.Lattice.area t <= Lt.Lattice.area l);
    U.qtest ~count:40 "trimmed composed lattices beat or match raw composition"
      QCheck.(pair (arb_nonconst 3) (arb_nonconst 3))
      (fun (f, g) ->
        let l =
          Lt.Compose.disjunction
            (Lt.Altun_riedel.synthesize f)
            (Lt.Altun_riedel.synthesize g)
        in
        let target = Testutil.bf_or f g in
        let t = Lt.Trim.trim l target in
        Lt.Checker.equivalent t target
        && Lt.Lattice.area t <= Lt.Lattice.area l);
  ]

(* ------------------------------------------------------------------ *)
(* Transient faults / TMR                                              *)
(* ------------------------------------------------------------------ *)

let transient_tests =
  [
    Alcotest.test_case "epsilon zero is fault free" `Quick (fun () ->
        let f = Parse.expr "x1x2 + x1'x2'" in
        let l = Lt.Altun_riedel.synthesize f in
        let rng = R.Rng.create 5 in
        check "no errors" true
          (R.Transient.module_error_rate rng ~trials:200 ~epsilon:0.0 l f
          = 0.0));
    Alcotest.test_case "flip_sites inverts with epsilon one" `Quick (fun () ->
        let f = Parse.expr "x1" in
        let l = Lt.Altun_riedel.synthesize f in
        let rng = R.Rng.create 6 in
        (* the single site x1 becomes x1', wrong on every input *)
        check "inverted" true
          (R.Transient.module_error_rate rng ~trials:50 ~epsilon:1.0 l f = 1.0));
    Alcotest.test_case "error rate grows with epsilon" `Quick (fun () ->
        let f = Parse.expr "x1x2 + x2x3 + x1'x3'" in
        let l = Lt.Altun_riedel.synthesize f in
        let rate eps =
          R.Transient.module_error_rate (R.Rng.create 7) ~trials:2000
            ~epsilon:eps l f
        in
        check "monotone-ish" true (rate 0.002 < rate 0.05 && rate 0.05 < rate 0.3));
    Alcotest.test_case "TMR beats simplex at small epsilon" `Quick (fun () ->
        let f = Parse.expr "x1x2 + x1'x2'" in
        let l = Lt.Altun_riedel.synthesize f in
        let simplex =
          R.Transient.module_error_rate (R.Rng.create 8) ~trials:6000
            ~epsilon:0.02 l f
        in
        let tmr =
          R.Transient.nmr_error_rate (R.Rng.create 9) ~copies:3 ~trials:6000
            ~epsilon:0.02 l f
        in
        check "tmr smaller" true (tmr < simplex);
        (* analytic prediction is in the right ballpark *)
        let predicted = R.Transient.tmr_prediction simplex in
        check "prediction within 3x" true
          (tmr <= 3.0 *. predicted +. 0.01));
    Alcotest.test_case "even copy counts rejected" `Quick (fun () ->
        let f = Parse.expr "x1" in
        let l = Lt.Altun_riedel.synthesize f in
        check "raises" true
          (match
             R.Transient.nmr_error_rate (R.Rng.create 1) ~copies:2 ~trials:10
               ~epsilon:0.1 l f
           with
          | exception Invalid_argument _ -> true
          | _ -> false));
  ]

(* ------------------------------------------------------------------ *)
(* BIST vector minimization                                            *)
(* ------------------------------------------------------------------ *)

let compaction_tests =
  [
    Alcotest.test_case "compaction preserves full coverage" `Quick (fun () ->
        List.iter
          (fun (m, n) ->
            let plan = R.Bist.plan ~rows:m ~cols:n in
            let universe = R.Fault_model.universe ~rows:m ~cols:n in
            let compact, dropped = R.Bist.minimize_vectors plan universe in
            let cov, _ = R.Bist.coverage compact universe in
            check "coverage kept" true (cov = 1.0);
            check "some vectors dropped" true (dropped > 0);
            check "vector count reduced" true
              (R.Bist.num_vectors compact < R.Bist.num_vectors plan))
          [ (4, 4); (8, 8); (6, 9) ]);
    Alcotest.test_case "compaction reduces substantially" `Quick (fun () ->
        let plan = R.Bist.plan ~rows:8 ~cols:8 in
        let universe = R.Fault_model.universe ~rows:8 ~cols:8 in
        let compact, _ = R.Bist.minimize_vectors plan universe in
        check "at least 20% smaller" true
          (float_of_int (R.Bist.num_vectors compact)
          < 0.8 *. float_of_int (R.Bist.num_vectors plan)));
  ]

(* ------------------------------------------------------------------ *)
(* Defect-aware placement                                              *)
(* ------------------------------------------------------------------ *)

(* The defect-aware flow of Fig. 6a: place the synthesized lattice
   around the chip's defects, then check the placed lattice, with the
   defects under it applied, still computes [f].  Returns (placed,
   functional). *)
let defect_aware ~attempts rng ~chip f =
  let lattice = Nxc_core.Synth.best_lattice (Nxc_core.Synth.synthesize f) in
  match R.Defect_flow.place_lattice rng chip lattice ~attempts with
  | None -> (false, false)
  | Some (row_map, col_map) ->
      let faulty =
        Nxc_core.Flow.lattice_with_defects lattice chip
          { R.Bism.row_map; col_map }
      in
      (true, Lt.Checker.equivalent faulty f)

let placement_tests =
  [
    Alcotest.test_case "compatible placements are accepted" `Quick (fun () ->
        (* lattice with a Zero site placed over a stuck-open crosspoint *)
        let l =
          Lt.Lattice.make ~n_vars:2
            [| [| Lt.Lattice.Lit (0, Cube.Pos); Lt.Lattice.Zero |];
               [| Lt.Lattice.Lit (1, Cube.Pos); Lt.Lattice.One |] |]
        in
        let chip = ref (R.Defect.perfect ~rows:2 ~cols:2) in
        chip := R.Defect.with_defect !chip 0 1 R.Defect.Stuck_open;
        chip := R.Defect.with_defect !chip 1 1 R.Defect.Stuck_closed;
        check "identity placement compatible" true
          (Nxc_oracle.Assign_ref.placement_compatible !chip l [| 0; 1 |] [| 0; 1 |]);
        (* a literal site over any defect is not *)
        let bad = R.Defect.with_defect (R.Defect.perfect ~rows:2 ~cols:2) 0 0 R.Defect.Stuck_open in
        check "literal over defect rejected" false
          (Nxc_oracle.Assign_ref.placement_compatible bad l [| 0; 1 |] [| 0; 1 |]));
    Alcotest.test_case "placements found are always compatible" `Quick (fun () ->
        let rng = R.Rng.create 12 in
        let f = Parse.expr "x1x2 + x2x3 + x1'x3'" in
        let l = Lt.Altun_riedel.synthesize f in
        for t = 1 to 20 do
          let chip =
            R.Defect.generate
              (R.Rng.create (200 + t))
              ~rows:16 ~cols:16 (R.Defect.uniform 0.08)
          in
          match R.Defect_flow.place_lattice rng chip l ~attempts:50 with
          | Some (rows, cols) ->
              check "compatible" true
                (Nxc_oracle.Assign_ref.placement_compatible chip l rows cols)
          | None -> ()
        done);
    Alcotest.test_case "defect-aware succeeds where defect-free extraction fails"
      `Quick (fun () ->
        (* a chip made entirely of stuck-open crosspoints except a
           column: no defect-free 2x2 exists, but a lattice whose
           second column is all Zero sites can still be placed *)
        let chip = ref (R.Defect.perfect ~rows:4 ~cols:4) in
        for r = 0 to 3 do
          for c = 1 to 3 do
            chip := R.Defect.with_defect !chip r c R.Defect.Stuck_open
          done
        done;
        check "no defect-free 2x2" true
          (R.Defect_flow.extract !chip ~k:2 = None);
        let l =
          Lt.Lattice.make ~n_vars:1
            [| [| Lt.Lattice.Lit (0, Cube.Pos); Lt.Lattice.Zero |];
               [| Lt.Lattice.Lit (0, Cube.Pos); Lt.Lattice.Zero |] |]
        in
        match
          R.Defect_flow.place_lattice (R.Rng.create 13) !chip l ~attempts:200
        with
        | Some (rows, cols) ->
            check "compatible" true
              (Nxc_oracle.Assign_ref.placement_compatible !chip l rows cols)
        | None -> Alcotest.fail "expected a defect-aware placement");
    Alcotest.test_case "oversized lattices are rejected" `Quick (fun () ->
        let l = Lt.Compose.of_const 1 true in
        let big = Lt.Compose.pad_to_rows l 5 in
        let chip = R.Defect.perfect ~rows:3 ~cols:3 in
        check "none" true
          (R.Defect_flow.place_lattice (R.Rng.create 1) chip big ~attempts:5
          = None));
  ]

(* ------------------------------------------------------------------ *)
(* Column folding                                                      *)
(* ------------------------------------------------------------------ *)

let folding_tests =
  [
    Alcotest.test_case "xnor folds to half the literal columns" `Quick
      (fun () ->
        (* x1x2 + x1'x2': x1 never co-occurs with x1', x2 with x2' *)
        let x = X.Diode.synthesize (Parse.expr "x1x2 + x1'x2'") in
        let f = X.Folding.fold_columns x in
        check_int "4 columns before" 4 f.X.Folding.original_cols;
        check_int "2 after" 2 f.X.Folding.folded_cols;
        check "valid" true (X.Folding.valid x f);
        check "saving 50%" true (abs_float (X.Folding.saving f -. 0.5) < 1e-9));
    Alcotest.test_case "single-product functions cannot fold" `Quick (fun () ->
        (* every literal shares the one row: full conflict graph *)
        let x = X.Diode.synthesize (Parse.expr "x1x2x3") in
        let f = X.Folding.fold_columns x in
        check_int "no pairs" 0 (List.length f.X.Folding.folds);
        check_int "width unchanged" f.X.Folding.original_cols
          f.X.Folding.folded_cols);
    U.qtest ~count:100 "folds are always conflict-free and complete"
      (arb_nonconst 5)
      (fun f ->
        match Boolfunc.is_const f with
        | Some _ -> true
        | None ->
            let x = X.Diode.synthesize f in
            let fd = X.Folding.fold_columns x in
            X.Folding.valid x fd
            && fd.X.Folding.folded_cols <= fd.X.Folding.original_cols
            && (2 * List.length fd.X.Folding.folds)
               + List.length fd.X.Folding.unpaired
               = fd.X.Folding.original_cols);
    U.qtest ~count:60 "folded dims keep the row count" (arb_nonconst 4)
      (fun f ->
        match Boolfunc.is_const f with
        | Some _ -> true
        | None ->
            let x = X.Diode.synthesize f in
            (X.Folding.folded_dims x).X.Model.rows
            = (X.Diode.dims x).X.Model.rows);
  ]

(* ------------------------------------------------------------------ *)
(* Objective selection and the defect-aware flow                       *)
(* ------------------------------------------------------------------ *)

let select_tests =
  [
    Alcotest.test_case "xnor: lattice wins on area" `Quick (fun () ->
        let impl = Nxc_core.Synth.synthesize (Parse.expr "x1x2 + x1'x2'") in
        match Nxc_core.Synth.select impl with
        | Nxc_core.Synth.Use_lattice _, r ->
            check_int "2x2" 4 r.X.Metrics.crosspoints
        | _ -> Alcotest.fail "expected the lattice to win");
    Alcotest.test_case "constants select the lattice" `Quick (fun () ->
        let impl =
          Nxc_core.Synth.synthesize (Boolfunc.of_fun_int 2 (fun _ -> true))
        in
        match Nxc_core.Synth.select impl with
        | Nxc_core.Synth.Use_lattice _, _ -> ()
        | _ -> Alcotest.fail "constants only have a lattice");
    U.qtest ~count:60 "selection minimizes the requested metric"
      (arb_nonconst 4)
      (fun f ->
        (* the requested metric is area *)
        let impl = Nxc_core.Synth.synthesize f in
        let _, winner = Nxc_core.Synth.select impl in
        let all =
          Nxc_core.Synth.lattice_report (Nxc_core.Synth.best_lattice impl)
          :: (match impl.Nxc_core.Synth.diode with
             | Some d -> [ X.Metrics.diode d ]
             | None -> [])
          @ (match impl.Nxc_core.Synth.fet with
            | Some x -> [ X.Metrics.fet x ]
            | None -> [])
        in
        List.for_all
          (fun r -> winner.X.Metrics.area_nm2 <= r.X.Metrics.area_nm2)
          all);
    Alcotest.test_case "defect-aware flow survives extreme density" `Quick
      (fun () ->
        (* at 40% stuck-open density the BISM flow has almost no chance
           for a 3x3 region; the aware flow exploits Zero sites *)
        let profile =
          { (R.Defect.uniform 0.4) with R.Defect.frac_open = 1.0;
            frac_closed = 0.0 }
        in
        let chip =
          R.Defect.generate (R.Rng.create 77) ~rows:20 ~cols:20 profile
        in
        let f = Parse.expr "x1x2 + x1'x2'" in
        let placed, functional =
          defect_aware ~attempts:400 (R.Rng.create 78) ~chip f
        in
        check "placed" true placed;
        check "functional" true functional);
    U.qtest ~count:25 "aware flow placements are always functional"
      (arb_nonconst 3)
      (fun f ->
        let chip =
          R.Defect.generate
            (R.Rng.create (Hashtbl.hash (Boolfunc.table f)))
            ~rows:24 ~cols:24 (R.Defect.uniform 0.10)
        in
        let placed, functional =
          defect_aware ~attempts:100 (R.Rng.create 79) ~chip f
        in
        (not placed) || functional);
  ]

(* ------------------------------------------------------------------ *)
(* Application-dependent BIST + recursive decomposition                *)
(* ------------------------------------------------------------------ *)

(* the full-array plan compacted against the application's faults *)
let plan_for (cfg : R.Fault_model.config) =
  let full = R.Bist.plan ~rows:cfg.rows ~cols:cfg.cols in
  fst (R.Bist.minimize_vectors full (R.Bist.application_universe cfg))

let app_bist_tests =
  [
    Alcotest.test_case "application universe is a strict subset for sparse \
                        configs" `Quick (fun () ->
        let cfg = R.Fault_model.single_term ~rows:8 ~cols:8 2 in
        let app = R.Bist.application_universe cfg in
        let full = R.Fault_model.universe ~rows:8 ~cols:8 in
        check "subset" true
          (List.for_all (fun f -> List.mem f full) app);
        check "strictly smaller" true (List.length app < List.length full));
    Alcotest.test_case "plan_for keeps 100% coverage of the app faults" `Quick
      (fun () ->
        List.iter
          (fun r ->
            let cfg = R.Fault_model.single_term ~rows:6 ~cols:6 r in
            let plan = plan_for cfg in
            let cov, und = R.Bist.coverage plan (R.Bist.application_universe cfg) in
            if und <> [] then
              Alcotest.failf "undetected app faults for row %d" r;
            check "full" true (cov = 1.0))
          [ 0; 2; 5 ]);
    Alcotest.test_case "application plans are smaller" `Quick (fun () ->
        let cfg = R.Fault_model.single_term ~rows:8 ~cols:8 3 in
        let app = plan_for cfg in
        let full = R.Bist.plan ~rows:8 ~cols:8 in
        check "fewer vectors" true
          (R.Bist.num_vectors app < R.Bist.num_vectors full));
    Alcotest.test_case "full-array configs keep the full universe" `Quick
      (fun () ->
        let cfg = R.Fault_model.empty_config ~rows:4 ~cols:4 in
        for r = 0 to 3 do
          cfg.R.Fault_model.observed.(r) <- true;
          for c = 0 to 3 do
            cfg.R.Fault_model.programmed.(r).(c) <- true
          done
        done;
        check_int "everything touched"
          (R.Fault_model.num_faults ~rows:4 ~cols:4)
          (List.length (R.Bist.application_universe cfg)));
  ]

let recursive_dec_tests =
  [
    U.qtest ~count:50 "recursive decomposition is correct" (arb_nonconst 4)
      (fun f ->
        Lt.Checker.equivalent (Lt.Decompose_synth.synthesize_recursive f) f);
    U.qtest ~count:30 "depth 0 equals direct synthesis in area"
      (arb_nonconst 4)
      (fun f ->
        let d0 = Lt.Decompose_synth.synthesize_recursive ~depth:0 f in
        Lt.Checker.equivalent d0 f);
    Alcotest.test_case "recursion can beat single-level decomposition" `Quick
      (fun () ->
        (* count over the suite how often depth-2 is at least as good *)
        let better = ref 0 and worse = ref 0 in
        List.iter
          (fun b ->
            let f = b.Nxc_suite.func in
            if Boolfunc.n_vars f <= 5 then begin
              let single = Lt.Decompose_synth.synthesize f in
              let recur = Lt.Decompose_synth.synthesize_recursive ~depth:2 f in
              check "recursive correct" true (Lt.Checker.equivalent recur f);
              if Lt.Lattice.area recur < Lt.Lattice.area single then
                incr better
              else if Lt.Lattice.area recur > Lt.Lattice.area single then
                incr worse
            end)
          (Nxc_suite.core ());
        check "recursion helps at least somewhere" true (!better > 0));
  ]

(* ------------------------------------------------------------------ *)
(* Path semantics                                                      *)
(* ------------------------------------------------------------------ *)

let paths_tests =
  [
    Alcotest.test_case "Fig. 4 lattice yields exactly its four products"
      `Quick (fun () ->
        let _, l = Lt.Altun_riedel.paper_example () in
        let products = Paths.path_products l in
        check_int "four products" 4 (List.length products);
        let strings = List.map Testutil.cube_to_string products |> List.sort compare in
        Alcotest.(check (list string))
          "the caption's products"
          [ "x1x2x3"; "x1x2x5x6"; "x2x3x4x5"; "x4x5x6" ]
          strings);
    Alcotest.test_case "zero lattice has no paths" `Quick (fun () ->
        let l = Lt.Compose.of_const 2 false in
        check_int "none" 0 (List.length (Paths.path_products l)));
    Alcotest.test_case "path budget enforced" `Quick (fun () ->
        (* an all-One 5x5 grid has a huge number of simple paths *)
        let l =
          Lt.Lattice.make ~n_vars:1
            (Array.make_matrix 5 5 Lt.Lattice.One)
        in
        check "fails fast" true
          (match Paths.path_products ~max_paths:10 l with
          | exception Failure _ -> true
          | _ -> false));
    U.qtest ~count:100 "path semantics equals connectivity semantics"
      (arb_nonconst 4)
      (fun f -> Paths.consistent (Lt.Altun_riedel.synthesize f));
    U.qtest ~count:40 "holds for composed lattices too"
      QCheck.(pair (arb_nonconst 3) (arb_nonconst 3))
      (fun (f, g) ->
        Paths.consistent
          (Lt.Compose.conjunction
             (Lt.Altun_riedel.synthesize f)
             (Lt.Altun_riedel.synthesize g)));
    U.qtest ~count:60 "extracted cover equals the function" (arb_nonconst 4)
      (fun f ->
        let l = Lt.Altun_riedel.synthesize f in
        Tt.equal (Tt.of_cover (Paths.to_cover l)) (Boolfunc.table f));
  ]

(* ------------------------------------------------------------------ *)
(* Lifetime repair loop                                                *)
(* ------------------------------------------------------------------ *)

let lifetime_tests =
  [
    Alcotest.test_case "no aging means no repairs" `Quick (fun () ->
        let chip = R.Defect.perfect ~rows:16 ~cols:16 in
        let s =
          R.Lifetime.simulate (R.Rng.create 90) ~chip ~k:8 ~horizon:500
            ~failure_rate:0.0 ~check_interval:50
        in
        check "survived" true s.R.Lifetime.survived;
        check_int "no defects" 0 s.R.Lifetime.new_defects;
        check_int "no remaps" 0 s.R.Lifetime.remaps;
        check "fully available" true (R.Lifetime.availability s = 1.0));
    Alcotest.test_case "aging triggers detection and repair" `Quick (fun () ->
        let chip = R.Defect.perfect ~rows:24 ~cols:24 in
        let s =
          R.Lifetime.simulate (R.Rng.create 91) ~chip ~k:12 ~horizon:4000
            ~failure_rate:0.01 ~check_interval:20
        in
        check "defects appeared" true (s.R.Lifetime.new_defects > 15);
        check "some repairs happened" true (s.R.Lifetime.remaps > 0);
        check "repairs kept it alive well past the first failures" true
          (s.R.Lifetime.lifetime > 2000));
    Alcotest.test_case "frequent checks shrink corrupt exposure" `Quick
      (fun () ->
        let run interval =
          let chip = R.Defect.perfect ~rows:24 ~cols:24 in
          R.Lifetime.simulate (R.Rng.create 92) ~chip ~k:10 ~horizon:3000
            ~failure_rate:0.05 ~check_interval:interval
        in
        let fast = run 10 and slow = run 300 in
        check "both see aging" true
          (fast.R.Lifetime.new_defects > 0 && slow.R.Lifetime.new_defects > 0);
        check "faster checks, less corruption" true
          (R.Lifetime.availability fast > R.Lifetime.availability slow));
    Alcotest.test_case "saturated chips eventually die" `Quick (fun () ->
        let chip = R.Defect.perfect ~rows:8 ~cols:8 in
        let s =
          R.Lifetime.simulate (R.Rng.create 93) ~chip ~k:7 ~horizon:100_000
            ~failure_rate:0.5 ~check_interval:10
        in
        check "died" false s.R.Lifetime.survived;
        check "death before the horizon" true
          (s.R.Lifetime.lifetime < 100_000));
    Alcotest.test_case "invalid parameters rejected" `Quick (fun () ->
        let chip = R.Defect.perfect ~rows:8 ~cols:8 in
        check "raises" true
          (match
             R.Lifetime.simulate (R.Rng.create 1) ~chip ~k:4 ~horizon:10
               ~failure_rate:0.0 ~check_interval:0
           with
          | exception Invalid_argument _ -> true
          | _ -> false));
  ]

let () =
  Alcotest.run "extensions"
    [
      ("multi", multi_tests);
      ("trim", trim_tests);
      ("transient", transient_tests);
      ("bist_compaction", compaction_tests);
      ("defect_aware_placement", placement_tests);
      ("folding", folding_tests);
      ("select_flow", select_tests);
      ("app_bist", app_bist_tests);
      ("recursive_decomposition", recursive_dec_tests);
      ("paths", paths_tests);
      ("lifetime", lifetime_tests);
    ]
