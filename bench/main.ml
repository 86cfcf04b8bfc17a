(* Benchmark harness: regenerates every table/figure-level claim of the
   DATE'17 paper (experiments E1-E10, see DESIGN.md), then runs
   Bechamel timing benches for the core synthesis kernels.

   Every experiment returns its headline numbers; the runner wraps each
   one with a wall-clock timer and a metrics snapshot and writes the lot
   to BENCH_results.json (override the path with BENCH_OUT) next to the
   human-readable tables it has always printed.

   Usage: dune exec bench/main.exe                      (everything)
          dune exec bench/main.exe -- E4 E7             (selected)
          dune exec bench/main.exe -- --jobs 4 E7 PAR   (parallel)    *)

open Nxc_logic
module Lt = Nxc_lattice
module X = Nxc_crossbar
module R = Nxc_reliability
module C = Nxc_core
module Obs = Nxc_obs
module J = Nxc_obs.Json

(* --jobs N (parsed in main): worker pool shared by the Monte-Carlo
   experiments.  Results are seed-deterministic for every N, so the
   flag only changes wall-clock, never tables. *)
let jobs = ref 1
let the_pool : Nxc_par.Pool.t option ref = ref None

(* Exact-cover provenance for the synthesis experiments: how much
   branch-and-bound search the covers cost, and whether any of them
   came back degraded.  Meaningful because [run_one] resets the metric
   registry before each experiment. *)
let cover_provenance () =
  let c name = Obs.Metrics.counter_value (Obs.Metrics.counter name) in
  let status =
    if c "qm.budget_exhausted" = 0 && c "minimize.degraded" = 0 then "exact"
    else "degraded"
  in
  [ ("bnb_nodes", J.Int (c "qm.bnb_nodes")); ("cover_status", J.Str status) ]

(* Whether the minimization of [name] into [cover] came back exact and
   as small as its lower bound, so that the minimum rests on a
   certificate.  Every certificate is checked by
   [Logic_ref.certificate_errors] against primes of its own; a rejected
   one fails the experiment. *)
let certified name ~n ~on cover (st : Qm.stats) =
  (match Nxc_oracle.Logic_ref.certificate_errors ~n ~on cover st with
  | [] -> ()
  | e :: _ -> failwith (Printf.sprintf "certificate of %s rejected: %s" name e));
  st.exact && Cover.num_cubes cover = st.lower_bound

(* How many exact minimizations of [fs] are [certified].  Run after
   [cover_provenance], whose counts they would otherwise add to. *)
let exact_certified fs =
  List.fold_left
    (fun acc f ->
      let tt = Boolfunc.table f in
      let n = Truth_table.n_vars tt and on = Truth_table.minterms tt in
      match Qm.minimize_result ~n on with
      | Ok (cover, st) when certified (Boolfunc.name f) ~n ~on cover st -> acc + 1
      | _ -> acc)
    0 fs

let section id title =
  Format.printf "@.=====================================================@.";
  Format.printf "%s — %s@." id title;
  Format.printf "=====================================================@.@."

(* ------------------------------------------------------------------ *)
(* E1: Fig. 3 — two-terminal array size formulas                       *)
(* ------------------------------------------------------------------ *)

let e1 () =
  section "E1" "two-terminal array sizes (Fig. 3 formulas)";
  Format.printf "%-12s %3s %9s %9s %9s  %-9s %-9s@." "name" "n" "products"
    "dualprod" "literals" "diode" "fet";
  let count = ref 0 and total_products = ref 0 and total_literals = ref 0 in
  List.iter
    (fun b ->
      let f = b.Nxc_suite.func in
      let cover = Minimize.sop f in
      let dual = Minimize.dual_sop f in
      let d = X.Diode.size_formula f in
      let t = X.Fet.size_formula f in
      (* the formulas must equal the built arrays *)
      assert (X.Diode.dims (X.Diode.synthesize f) = d);
      assert (X.Fet.dims (X.Fet.synthesize f) = t);
      incr count;
      total_products := !total_products + Cover.num_cubes cover;
      total_literals :=
        !total_literals + List.length (Cover.distinct_literals cover);
      Format.printf "%-12s %3d %9d %9d %9d  %dx%-7d %dx%-7d@." b.Nxc_suite.name
        (Boolfunc.n_vars f) (Cover.num_cubes cover) (Cover.num_cubes dual)
        (List.length (Cover.distinct_literals cover))
        d.X.Model.rows d.X.Model.cols t.X.Model.rows t.X.Model.cols)
    (Nxc_suite.core ());
  Format.printf
    "@.paper check: xnor2 has 4 literals / 2 products -> diode 2x5, fet 4x4@.";
  let provenance = cover_provenance () in
  let certified =
    exact_certified
      (List.concat_map
         (fun b -> [ b.Nxc_suite.func; Boolfunc.dual b.Nxc_suite.func ])
         (Nxc_suite.core ()))
  in
  Format.printf
    "%d of %d covers (each function and its dual) certified minimum by \
     their lower bound@."
    certified (2 * !count);
  [ ("benchmarks", J.Int !count);
    ("total_products", J.Int !total_products);
    ("total_distinct_literals", J.Int !total_literals) ]
  @ provenance
  @ [ ("exact_certified", J.Int certified) ]

(* ------------------------------------------------------------------ *)
(* E2: Fig. 5 — four-terminal lattice size formula + Fig. 4 example    *)
(* ------------------------------------------------------------------ *)

let e2 () =
  section "E2" "four-terminal lattice sizes (Fig. 5 formula, Fig. 4 example)";
  Format.printf "%-12s %3s  %-9s %6s %9s@." "name" "n" "lattice" "area"
    "verified";
  let verified = ref 0 and total = ref 0 and total_area = ref 0 in
  List.iter
    (fun b ->
      let f = b.Nxc_suite.func in
      let l = Lt.Altun_riedel.synthesize f in
      let r, c = Lt.Altun_riedel.size_formula f in
      assert (Lt.Lattice.rows l = r && Lt.Lattice.cols l = c);
      let ok = Lt.Checker.equivalent l f in
      incr total;
      if ok then incr verified;
      total_area := !total_area + (r * c);
      Format.printf "%-12s %3d  %dx%-7d %6d %9b@." b.Nxc_suite.name
        (Boolfunc.n_vars f) r c (r * c) ok)
    (Nxc_suite.core ());
  let fig4_f, fig4_l = Lt.Altun_riedel.paper_example () in
  let fig4_ok = Lt.Checker.equivalent fig4_l fig4_f in
  Format.printf "@.Fig. 4 published lattice is 3x2 and verified: %b@." fig4_ok;
  let duality =
    List.for_all
      (fun b ->
        match Boolfunc.is_const b.Nxc_suite.func with
        | Some _ -> true
        | None ->
            Lt.Checker.computes_dual_lr
              (Lt.Altun_riedel.synthesize b.Nxc_suite.func)
              b.Nxc_suite.func)
      (Nxc_suite.core ())
  in
  Format.printf "left-to-right duality holds on every synthesized lattice: %b@."
    duality;
  [ ("verified", J.Int !verified);
    ("benchmarks", J.Int !total);
    ("total_lattice_area", J.Int !total_area);
    ("fig4_verified", J.Bool fig4_ok);
    ("lr_duality", J.Bool duality) ]

(* ------------------------------------------------------------------ *)
(* E3: Section III headline — size comparison                          *)
(* ------------------------------------------------------------------ *)

let e3 () =
  section "E3" "technology size comparison (Section III claim)";
  let rows =
    List.map
      (fun b -> C.Synth.sizes (C.Synth.synthesize b.Nxc_suite.func))
      (Nxc_suite.core ())
  in
  print_endline (C.Report.size_table rows);
  [ ("benchmarks", J.Int (List.length rows));
    ( "total_best_lattice_area",
      J.Int
        (List.fold_left
           (fun acc r -> acc + r.C.Synth.best_lattice_area)
           0 rows) ) ]

(* ------------------------------------------------------------------ *)
(* E4: P-circuit decomposition preprocessing                           *)
(* ------------------------------------------------------------------ *)

let e4 () =
  section "E4" "P-circuit decomposition preprocessing (Section III.B.1)";
  Format.printf "%-12s %8s %8s %8s %8s %7s@." "name" "direct" "decomp"
    "recur" "+trim" "gain";
  let improved = ref 0 and total = ref 0 in
  List.iter
    (fun b ->
      let f = b.Nxc_suite.func in
      let direct = Lt.Lattice.area (Lt.Altun_riedel.synthesize f) in
      let dec_lattice = Lt.Decompose_synth.synthesize f in
      assert (Lt.Checker.equivalent dec_lattice f);
      let dec = Lt.Lattice.area dec_lattice in
      let rec_lattice = Lt.Decompose_synth.synthesize_recursive ~depth:2 f in
      assert (Lt.Checker.equivalent rec_lattice f);
      let best_dec =
        if Lt.Lattice.area rec_lattice < dec then rec_lattice else dec_lattice
      in
      let trimmed = Lt.Trim.trim best_dec f in
      assert (Lt.Checker.equivalent trimmed f);
      let tri = Lt.Lattice.area trimmed in
      incr total;
      if tri < direct then incr improved;
      Format.printf "%-12s %8d %8d %8d %8d %6.0f%%@." b.Nxc_suite.name direct
        dec
        (Lt.Lattice.area rec_lattice)
        tri
        (100.0 *. (1.0 -. (float_of_int tri /. float_of_int direct))))
    (Nxc_suite.core ());
  Format.printf
    "@.decomposition (single or recursive) plus trimming reduced lattice \
     area on %d/%d benchmarks@."
    !improved !total;
  [ ("improved", J.Int !improved); ("benchmarks", J.Int !total) ]

(* ------------------------------------------------------------------ *)
(* E5: D-reducible preprocessing                                       *)
(* ------------------------------------------------------------------ *)

let e5 () =
  section "E5" "D-reducible function preprocessing (Section III.B.2)";
  Format.printf "%-12s %6s %8s %8s %7s@." "name" "dim" "direct" "d-red" "gain";
  let reducible = ref 0 and total = ref 0 in
  List.iter
    (fun b ->
      let f = b.Nxc_suite.func in
      incr total;
      match Affine.d_reduction f with
      | None -> Format.printf "%-12s  not D-reducible@." b.Nxc_suite.name
      | Some red ->
          incr reducible;
          let direct = Lt.Lattice.area (Lt.Altun_riedel.synthesize f) in
          let dred_lattice = Option.get (Lt.Dred_synth.synthesize f) in
          assert (Lt.Checker.equivalent dred_lattice f);
          let dred = Lt.Lattice.area dred_lattice in
          Format.printf "%-12s %2d->%-2d %8d %8d %6.0f%%@." b.Nxc_suite.name
            (Boolfunc.n_vars f)
            (Affine.dimension red.Affine.space)
            direct dred
            (100.0 *. (1.0 -. (float_of_int dred /. float_of_int direct))))
    (Nxc_suite.d_reducible ());
  [ ("d_reducible", J.Int !reducible); ("benchmarks", J.Int !total) ]

(* ------------------------------------------------------------------ *)
(* E6: BIST coverage and BISD block codes                              *)
(* ------------------------------------------------------------------ *)

let e6 () =
  section "E6" "BIST exhaustive coverage, BISD logarithmic codes (IV.A)";
  Format.printf "%-8s %8s %9s %8s %9s %9s@." "array" "faults" "configs"
    "(group)" "vectors" "coverage";
  let cov88 = ref 0.0 in
  List.iter
    (fun (m, n) ->
      let plan = R.Bist.plan ~rows:m ~cols:n in
      let universe = R.Fault_model.universe ~rows:m ~cols:n in
      let cov, _ = R.Bist.coverage plan universe in
      if m = 8 && n = 8 then cov88 := cov;
      Format.printf "%2dx%-5d %8d %9d %8d %9d %8.1f%%@." m n
        (List.length universe) (R.Bist.num_configs plan)
        (R.Bisd.num_group_configs plan)
        (R.Bist.num_vectors plan) (100.0 *. cov))
    [ (4, 4); (8, 8); (16, 16); (32, 8); (8, 32); (16, 48) ];
  Format.printf
    "@.group configurations (the diagnosis block code) vs fault count:@.";
  List.iter
    (fun m ->
      let plan = R.Bist.plan ~rows:m ~cols:8 in
      Format.printf "  rows %4d: %2d group configs, %5d faults (log2 = %.1f)@."
        m
        (R.Bisd.num_group_configs plan)
        (R.Fault_model.num_faults ~rows:m ~cols:8)
        (log (float_of_int (R.Fault_model.num_faults ~rows:m ~cols:8))
        /. log 2.0))
    [ 8; 16; 32; 64; 128; 256 ];
  (* diagnosis resolution over a full universe *)
  let rows = 6 and cols = 6 in
  let plan = R.Bist.plan ~rows ~cols in
  let universe = R.Fault_model.universe ~rows ~cols in
  let pinned = ref 0 and located = ref 0 in
  List.iter
    (fun f ->
      let loc =
        R.Bisd.locate plan ~universe ~syndrome:(R.Bist.syndrome plan f)
      in
      let rs = List.length loc.R.Bisd.cand_rows
      and cs = List.length loc.R.Bisd.cand_cols in
      if rs <= 1 && cs <= 1 then incr pinned;
      if rs + cs > 0 then incr located)
    universe;
  Format.printf
    "@.diagnosis on the full 6x6 universe: %d/%d faults located, %d pinned to \
     a single row and column@."
    !located (List.length universe) !pinned;
  [ ("coverage_8x8", J.Float !cov88);
    ("located_6x6", J.Int !located);
    ("pinned_6x6", J.Int !pinned);
    ("universe_6x6", J.Int (List.length universe)) ]

(* ------------------------------------------------------------------ *)
(* E7: BISM regimes across defect density                              *)
(* ------------------------------------------------------------------ *)

let e7 () =
  section "E7" "blind vs greedy vs hybrid BISM (Section IV.B)";
  let n = 32 and k = 14 and trials = 15 and max_configs = 300 in
  Format.printf "mapping %dx%d onto %dx%d, %d chips per cell, budget %d@.@." k
    k n n trials max_configs;
  Format.printf "%-9s %-8s %9s %10s %10s@." "density" "scheme" "mapped"
    "avg cfgs" "avg diags";
  let scheme_totals = Hashtbl.create 4 in
  List.iter
    (fun density ->
      List.iter
        (fun (label, scheme) ->
          let mc, _ =
            R.Bism.monte_carlo ?pool:!the_pool
              (R.Rng.create (7919 + int_of_float (density *. 1e6)))
              scheme ~trials ~n ~profile:(R.Defect.uniform density) ~k_rows:k
              ~k_cols:k ~max_configs
          in
          Hashtbl.replace scheme_totals label
            (mc.R.Bism.mc_mapped
            + Option.value ~default:0 (Hashtbl.find_opt scheme_totals label));
          Format.printf "%-9.3f %-8s %6d/%-3d %10.1f %10.1f@." density label
            mc.R.Bism.mc_mapped trials mc.R.Bism.mc_avg_configs
            mc.R.Bism.mc_avg_diagnoses)
        [ ("blind", R.Bism.Blind); ("greedy", R.Bism.Greedy);
          ("hybrid", R.Bism.Hybrid 10) ])
    [ 0.005; 0.01; 0.02; 0.04; 0.08 ];
  Format.printf
    "@.expected shape: blind cheap at low density, failing at high; greedy \
     bounded; hybrid tracks the better of the two@.";
  List.map
    (fun label ->
      ( label ^ "_mapped",
        J.Int (Option.value ~default:0 (Hashtbl.find_opt scheme_totals label)) ))
    [ "blind"; "greedy"; "hybrid" ]

(* ------------------------------------------------------------------ *)
(* E8: defect-unaware flow (Fig. 6)                                    *)
(* ------------------------------------------------------------------ *)

let e8 () =
  section "E8" "defect-unaware flow: k x k recovery and costs (Fig. 6)";
  Format.printf "%-6s %-9s %-12s %-8s@." "N" "density" "mean max k" "k/N";
  let ek_32_005 = ref 0.0 and rec_16_005 = ref 0.0 in
  List.iter
    (fun n ->
      List.iter
        (fun density ->
          let ek =
            R.Yield_model.expected_max_k ?pool:!the_pool (R.Rng.create 31)
              ~trials:25 ~n ~profile:(R.Defect.uniform density)
          in
          if n = 32 && density = 0.05 then ek_32_005 := ek;
          Format.printf "%-6d %-9.2f %-12.1f %-8.2f@." n density ek
            (ek /. float_of_int n))
        [ 0.02; 0.05; 0.10; 0.20 ])
    [ 16; 32; 64 ];
  Format.printf "@.yield of fixed k on N=32:@.";
  List.iter
    (fun density ->
      Format.printf "  density %.2f:" density;
      List.iter
        (fun k ->
          let r =
            R.Yield_model.recovery_rate ?pool:!the_pool (R.Rng.create 32)
              ~trials:30 ~n:32 ~k ~profile:(R.Defect.uniform density)
          in
          if k = 16 && density = 0.05 then rec_16_005 := r;
          Format.printf "  k=%d %.0f%%" k (100.0 *. r))
        [ 12; 16; 20; 24 ];
      Format.printf "@.")
    [ 0.02; 0.05; 0.10 ];
  let chips = 10_000 and apps = 8 and n = 64 in
  Format.printf "@.flow costs over %d chips, %d applications:@." chips apps;
  Format.printf "  %a@." R.Defect_flow.pp_cost
    (R.Defect_flow.aware_cost ~n ~chips ~apps);
  Format.printf "  %a@." R.Defect_flow.pp_cost
    (R.Defect_flow.unaware_cost ~n ~k:48 ~chips ~apps);
  [ ("mean_max_k_n32_d005", J.Float !ek_32_005);
    ("recovery_k16_n32_d005", J.Float !rec_16_005) ]

(* ------------------------------------------------------------------ *)
(* E9: parametric variation tolerance                                  *)
(* ------------------------------------------------------------------ *)

let e9 () =
  section "E9" "parametric variation and variation-aware mapping";
  let cfg = R.Fault_model.single_term ~rows:8 ~cols:8 3 in
  Format.printf "delay spread of an 8-device chain vs sigma:@.";
  List.iter
    (fun sigma ->
      let s = R.Variation.monte_carlo (R.Rng.create 41) ~trials:400 ~sigma cfg in
      Format.printf "  sigma %.1f: %a@." sigma R.Variation.pp_stats s)
    [ 0.1; 0.3; 0.5; 0.7 ];
  (* variation-aware mapping gain: choose among candidate defect-free
     selections by measured delay *)
  let trials = 25 in
  let gain = ref 0.0 and counted = ref 0 in
  for t = 1 to trials do
    let rng = R.Rng.create (500 + t) in
    let chip = R.Defect.generate rng ~rows:24 ~cols:24 (R.Defect.uniform 0.05) in
    let delays = R.Variation.sample rng ~rows:24 ~cols:24 ~sigma:0.5 in
    let base = R.Defect_flow.greedy_max chip in
    let k = R.Defect_flow.recovered_k base in
    let candidates =
      List.filter_map (fun kk -> R.Defect_flow.extract chip ~k:kk) [ k; k - 1 ]
      @ [ base ]
    in
    match candidates with
    | first :: _ :: _ ->
        let naive = R.Variation.selection_delay delays first in
        let _, best = R.Variation.pick_fastest delays candidates in
        if naive > 0.0 then begin
          gain := !gain +. ((naive -. best) /. naive);
          incr counted
        end
    | _ -> ()
  done;
  let gain_pct = 100.0 *. !gain /. float_of_int !counted in
  Format.printf
    "@.variation-aware selection saved %.1f%% worst-path delay on average \
     (%d chips, sigma 0.5)@."
    gain_pct !counted;
  [ ("mean_delay_saving_pct", J.Float gain_pct);
    ("chips_counted", J.Int !counted) ]

(* ------------------------------------------------------------------ *)
(* E10: arithmetic + SSM on the defective fabric                       *)
(* ------------------------------------------------------------------ *)

let e10 () =
  section "E10" "WP3/WP4: nanocomputer elements end to end";
  let adder = C.Arith.ripple_adder 4 in
  let errors = ref 0 in
  for x = 0 to 15 do
    for y = 0 to 15 do
      if C.Arith.add adder x y <> x + y then incr errors
    done
  done;
  Format.printf "4-bit lattice adder: %d sites, %d/256 addition errors@."
    (C.Arith.adder_area adder) !errors;
  let counter = C.Ssm.counter ~bits:3 in
  Format.printf "mod-8 counter: %d lattice sites, correct: %b@."
    (C.Ssm.logic_area counter)
    (C.Ssm.equivalent_to counter ~reference:(fun ~state ~input ->
         ((if input = 1 then (state + 1) land 7 else state), state)));
  let machine =
    C.Machine.create ~word_bits:8 ~data_words:8
      ~program:(C.Machine.assemble_fibonacci ~steps:12)
      ()
  in
  let final = C.Machine.run machine in
  let fib12 = C.Machine.peek machine 0 in
  Format.printf
    "accumulator machine: F(12) = %d in %d cycles (%d lattice sites)@." fib12
    final.C.Machine.steps
    (C.Machine.lattice_sites machine);
  Format.printf "@.Fig. 2 pipeline over defect densities (10 chips each):@.";
  Format.printf "%-9s %-24s %9s %11s@." "density" "function" "mapped"
    "functional";
  let tot_mapped = ref 0 and tot_functional = ref 0 and tot_runs = ref 0 in
  List.iter
    (fun density ->
      List.iter
        (fun expr ->
          let f = Parse.expr expr in
          let mapped = ref 0 and functional = ref 0 in
          for t = 1 to 10 do
            let chip =
              R.Defect.generate
                (R.Rng.create (t * 31))
                ~rows:24 ~cols:24 (R.Defect.uniform density)
            in
            let r = C.Flow.run (R.Rng.create (t * 37)) ~chip f in
            if r.C.Flow.bism.R.Bism.success then incr mapped;
            if r.C.Flow.functional then incr functional
          done;
          tot_mapped := !tot_mapped + !mapped;
          tot_functional := !tot_functional + !functional;
          tot_runs := !tot_runs + 10;
          Format.printf "%-9.2f %-24s %6d/10 %8d/10@." density expr !mapped
            !functional)
        [ "x1x2 + x1'x2'"; "x1x2 + x2x3 + x1'x3'"; "x1 ^ x2 ^ x3 ^ x4" ])
    [ 0.02; 0.08 ];
  [ ("adder_errors", J.Int !errors);
    ("fib12", J.Int fib12);
    ("pipeline_runs", J.Int !tot_runs);
    ("pipeline_mapped", J.Int !tot_mapped);
    ("pipeline_functional", J.Int !tot_functional) ]

(* ------------------------------------------------------------------ *)
(* E11: multi-output product sharing                                   *)
(* ------------------------------------------------------------------ *)

let e11 () =
  section "E11" "multi-output crossbars: AND-plane product sharing";
  Format.printf "%-6s %9s %10s %10s %11s@." "name" "outputs" "shared-P"
    "separateP" "saved";
  let tot_shared = ref 0 and tot_separate = ref 0 in
  List.iter
    (fun mo ->
      let fs = mo.Nxc_suite.outputs in
      let x = X.Multi.synthesize fs in
      (* correctness across the whole input space *)
      let n = Boolfunc.n_vars (List.hd fs) in
      for m = 0 to (1 lsl n) - 1 do
        let out = X.Multi.eval_int x m in
        List.iteri
          (fun o f -> assert (out.(o) = Boolfunc.eval_int f m))
          fs
      done;
      let sep =
        List.fold_left
          (fun acc f -> acc + Cover.num_cubes (Minimize.sop f))
          0 fs
      in
      tot_shared := !tot_shared + X.Multi.num_products x;
      tot_separate := !tot_separate + sep;
      Format.printf "%-6s %9d %10d %10d %10.0f%%@." mo.Nxc_suite.multi_name
        (List.length fs) (X.Multi.num_products x) sep
        (100.0 *. (1.0 -. (float_of_int (X.Multi.num_products x) /. float_of_int sep))))
    (Nxc_suite.multi_output ());
  Format.printf
    "@.products are the programmable AND-plane rows — the paper's size \
     currency; sharing never needs more of them@.";
  let provenance = cover_provenance () in
  let outputs =
    List.concat_map (fun mo -> mo.Nxc_suite.outputs) (Nxc_suite.multi_output ())
  in
  let certified = exact_certified outputs in
  Format.printf "%d of %d separate output covers certified minimum by their \
                 lower bound@."
    certified (List.length outputs);
  [ ("total_shared_products", J.Int !tot_shared);
    ("total_separate_products", J.Int !tot_separate) ]
  @ provenance
  @ [ ("exact_certified", J.Int certified) ]

(* ------------------------------------------------------------------ *)
(* E12: transient faults and modular redundancy                        *)
(* ------------------------------------------------------------------ *)

let e12 () =
  section "E12" "transient faults: simplex vs TMR ([15]'s lifetime axis)";
  let f = Parse.expr "x1x2 + x2x3 + x1'x3'" in
  let l = Lt.Altun_riedel.synthesize f in
  Format.printf "%d-site lattice, per-site upset probability sweep:@.@."
    (Lt.Lattice.area l);
  Format.printf "%-9s %10s %10s %10s %12s@." "epsilon" "simplex" "tmr"
    "5-mr" "3p^2-2p^3";
  let simplex_001 = ref 0.0 and tmr_001 = ref 0.0 in
  List.iter
    (fun eps ->
      let simplex =
        R.Transient.module_error_rate (R.Rng.create 81) ~trials:4000
          ~epsilon:eps l f
      in
      let tmr =
        R.Transient.nmr_error_rate (R.Rng.create 82) ~copies:3 ~trials:4000
          ~epsilon:eps l f
      in
      let fmr =
        R.Transient.nmr_error_rate (R.Rng.create 83) ~copies:5 ~trials:4000
          ~epsilon:eps l f
      in
      if eps = 0.01 then begin
        simplex_001 := simplex;
        tmr_001 := tmr
      end;
      Format.printf "%-9.3f %10.4f %10.4f %10.4f %12.4f@." eps simplex tmr fmr
        (R.Transient.tmr_prediction simplex))
    [ 0.002; 0.005; 0.01; 0.02; 0.05; 0.1; 0.2 ];
  Format.printf
    "@.expected shape: TMR quadratically suppresses small error rates and \
     loses its advantage as epsilon grows@.";
  [ ("simplex_eps001", J.Float !simplex_001);
    ("tmr_eps001", J.Float !tmr_001) ]

(* ------------------------------------------------------------------ *)
(* E13: defect-aware vs defect-unaware placement success               *)
(* ------------------------------------------------------------------ *)

let e13 () =
  section "E13" "defect-aware placement vs defect-free extraction (Fig. 6a vs 6b)";
  let f = Parse.expr "x1x2 + x2x3 + x1'x3'" in
  let l = Lt.Altun_riedel.synthesize f in
  let lr = Lt.Lattice.rows l and lc = Lt.Lattice.cols l in
  Format.printf "placing a %dx%d lattice on 12x12 chips (30 chips/cell):@.@."
    lr lc;
  Format.printf "%-9s %16s %14s@." "density" "defect-unaware" "defect-aware";
  let tot_unaware = ref 0 and tot_aware = ref 0 in
  List.iter
    (fun density ->
      let s =
        R.Defect_flow.placement_sweep ?pool:!the_pool
          (R.Rng.create (131 + int_of_float (density *. 1e5)))
          ~lattice:l ~chips:30 ~n:12 ~profile:(R.Defect.uniform density)
          ~attempts:60
      in
      tot_unaware := !tot_unaware + s.R.Defect_flow.placed_unaware;
      tot_aware := !tot_aware + s.R.Defect_flow.placed_aware;
      Format.printf "%-9.2f %13d/30 %11d/30@." density
        s.R.Defect_flow.placed_unaware s.R.Defect_flow.placed_aware)
    [ 0.05; 0.15; 0.30; 0.45; 0.60 ];
  Format.printf
    "@.the application-dependent flow keeps placing configurations long \
     after universal defect-free regions are gone — at a per-application, \
     per-chip search cost (Fig. 6's trade-off)@.";
  [ ("unaware_placed", J.Int !tot_unaware);
    ("aware_placed", J.Int !tot_aware) ]

(* ------------------------------------------------------------------ *)
(* E14: diode-array column folding                                     *)
(* ------------------------------------------------------------------ *)

let e14 () =
  section "E14" "diode-array column folding (array optimization, ref. [11])";
  Format.printf "%-12s %10s %10s %8s@." "name" "unfolded" "folded" "saving";
  let total_saved = ref 0.0 and counted = ref 0 in
  List.iter
    (fun b ->
      let f = b.Nxc_suite.func in
      match Boolfunc.is_const f with
      | Some _ -> ()
      | None ->
          let x = X.Diode.synthesize f in
          let fd = X.Folding.fold_columns x in
          assert (X.Folding.valid x fd);
          let d = X.Diode.dims x and d' = X.Folding.folded_dims x in
          total_saved := !total_saved +. X.Folding.saving fd;
          incr counted;
          Format.printf "%-12s %6dx%-5d %5dx%-5d %7.0f%%@." b.Nxc_suite.name
            d.X.Model.rows d.X.Model.cols d'.X.Model.rows d'.X.Model.cols
            (100.0 *. X.Folding.saving fd))
    (Nxc_suite.core ());
  let mean_saving_pct = 100.0 *. !total_saved /. float_of_int !counted in
  Format.printf "@.mean literal-column saving: %.0f%%@." mean_saving_pct;
  [ ("mean_column_saving_pct", J.Float mean_saving_pct);
    ("benchmarks", J.Int !counted) ]

(* ------------------------------------------------------------------ *)
(* E15: lifetime repair loop                                           *)
(* ------------------------------------------------------------------ *)

let e15 () =
  section "E15" "lifetime reliability: periodic BIST + BISM repair";
  Format.printf
    "12x12 array on a 24x24 chip aging for 4000 steps (8 chips/cell):@.@.";
  Format.printf "%-10s %-10s %10s %8s %10s %10s@." "fail-rate" "interval"
    "avail" "remaps" "corrupt" "survived";
  let tot_alive = ref 0 and tot_remaps = ref 0 and tot_trials = ref 0 in
  List.iter
    (fun failure_rate ->
      List.iter
        (fun check_interval ->
          let trials = 8 in
          let avail = ref 0.0
          and remaps = ref 0
          and corrupt = ref 0
          and alive = ref 0 in
          let summaries =
            R.Lifetime.monte_carlo ?pool:!the_pool
              (R.Rng.create (997 + check_interval))
              ~chip:(R.Defect.perfect ~rows:24 ~cols:24)
              ~k:12 ~trials ~horizon:4000 ~failure_rate ~check_interval
          in
          Array.iter
            (fun s ->
              avail := !avail +. R.Lifetime.availability s;
              remaps := !remaps + s.R.Lifetime.remaps;
              corrupt := !corrupt + s.R.Lifetime.corrupt_steps;
              if s.R.Lifetime.survived then incr alive)
            summaries;
          tot_alive := !tot_alive + !alive;
          tot_remaps := !tot_remaps + !remaps;
          tot_trials := !tot_trials + trials;
          Format.printf "%-10.3f %-10d %9.1f%% %8.1f %10.1f %7d/%d@."
            failure_rate check_interval
            (100.0 *. !avail /. float_of_int trials)
            (float_of_int !remaps /. float_of_int trials)
            (float_of_int !corrupt /. float_of_int trials)
            !alive trials)
        [ 10; 50; 250 ])
    [ 0.002; 0.01 ];
  Format.printf
    "@.shorter check intervals buy availability (less silent corruption) at \
     higher test cost — the paper's runtime-reliability trade@.";
  [ ("survived", J.Int !tot_alive);
    ("simulations", J.Int !tot_trials);
    ("total_remaps", J.Int !tot_remaps) ]

(* ------------------------------------------------------------------ *)
(* Bechamel timing benches                                             *)
(* ------------------------------------------------------------------ *)

let timing () =
  section "TIMING" "Bechamel micro-benchmarks of the synthesis kernels";
  let open Bechamel in
  let open Toolkit in
  let maj5 = (Nxc_suite.majority 5).Nxc_suite.func in
  let rnd6 =
    (Nxc_suite.random_function ~n:6 ~seed:9 ~density:0.3).Nxc_suite.func
  in
  let tt6 = Boolfunc.table rnd6 in
  let chip64 =
    R.Defect.generate (R.Rng.create 90) ~rows:64 ~cols:64 (R.Defect.uniform 0.05)
  in
  let plan88 = R.Bist.plan ~rows:8 ~cols:8 in
  let universe88 = R.Fault_model.universe ~rows:8 ~cols:8 in
  let maj5_lattice = Lt.Altun_riedel.synthesize maj5 in
  let tests =
    Test.make_grouped ~name:"kernels"
      [ Test.make ~name:"qm_exact_maj5"
          (Staged.stage (fun () ->
               ignore (Qm.minimize_table (Boolfunc.table maj5))));
        Test.make ~name:"isop_rnd6"
          (Staged.stage (fun () -> ignore (Isop.isop tt6)));
        Test.make ~name:"ar_synthesis_maj5"
          (Staged.stage (fun () -> ignore (Lt.Altun_riedel.synthesize maj5)));
        Test.make ~name:"lattice_eval_32_inputs"
          (Staged.stage (fun () ->
               for m = 0 to 31 do
                 ignore (Lt.Lattice.eval_int maj5_lattice m)
               done));
        Test.make ~name:"bist_plan_16x16"
          (Staged.stage (fun () -> ignore (R.Bist.plan ~rows:16 ~cols:16)));
        Test.make ~name:"bist_coverage_8x8"
          (Staged.stage (fun () ->
               ignore (R.Bist.coverage plan88 universe88)));
        Test.make ~name:"greedy_extract_64x64"
          (Staged.stage (fun () -> ignore (R.Defect_flow.greedy_max chip64)));
        Test.make ~name:"bism_greedy_32"
          (Staged.stage (fun () ->
               let chip =
                 R.Defect.generate (R.Rng.create 91) ~rows:32 ~cols:32
                   (R.Defect.uniform 0.04)
               in
               ignore
                 (R.Bism.run (R.Rng.create 92) R.Bism.Greedy ~chip ~k_rows:12
                    ~k_cols:12 ~max_configs:200))) ]
  in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name est acc ->
        match Analyze.OLS.estimates est with
        | Some [ ns ] -> (name, ns) :: acc
        | _ -> (name, nan) :: acc)
      results []
    |> List.sort compare
  in
  Format.printf "%-40s %15s@." "kernel" "ns/run";
  List.iter (fun (name, ns) -> Format.printf "%-40s %15.0f@." name ns) rows;
  List.map (fun (name, ns) -> (name ^ "_ns", J.Float ns)) rows

(* ------------------------------------------------------------------ *)
(* E16: budgeted computation and graceful degradation                  *)
(* ------------------------------------------------------------------ *)

let e16 () =
  section "E16" "guard: degradation quality under budget pressure";
  let module G = Nxc_guard in
  Format.printf
    "exact minimization of the benchmark suite under step budgets:@.@.";
  Format.printf "%-10s %10s %10s %12s@." "budget" "degraded" "equivalent"
    "avg steps";
  let headline = ref [] in
  List.iter
    (fun steps ->
      let degraded = ref 0
      and equiv = ref 0
      and total = ref 0
      and used = ref 0 in
      List.iter
        (fun b ->
          let f = b.Nxc_suite.func in
          let guard = G.Budget.create ~label:"bench" ~steps () in
          (match
             G.Budget.with_current guard (fun () -> Minimize.sop_result f)
           with
          | Ok o ->
              incr total;
              if o.Minimize.degraded then incr degraded;
              if Minimize.verify o.Minimize.cover f then incr equiv
          | Error _ -> incr total);
          used := !used + G.Budget.steps_used guard)
        (Nxc_suite.core ());
      Format.printf "%-10d %7d/%-2d %7d/%-2d %12.0f@." steps !degraded !total
        !equiv !total
        (float_of_int !used /. float_of_int !total);
      (* every cover, degraded or not, must stay function-equivalent *)
      assert (!equiv = !total);
      headline :=
        (Printf.sprintf "degraded_at_%d" steps, J.Int !degraded) :: !headline)
    [ 10; 100; 1_000; 100_000 ];
  (* end-to-end: a hostile chip under a small budget exercises the
     Blind -> Hybrid -> Greedy escalation ladder *)
  let f = Parse.expr "x1x2 + x1'x2'" in
  let chip =
    R.Defect.generate (R.Rng.create 11) ~rows:12 ~cols:12
      (R.Defect.uniform 0.25)
  in
  let guard = G.Budget.create ~label:"bench-flow" ~steps:5_000 () in
  let functional =
    match
      G.Budget.with_current guard (fun () ->
          C.Flow.run_result (R.Rng.create 5) ~chip f)
    with
    | Ok r -> r.C.Flow.functional
    | Error _ -> false
  in
  Format.printf
    "@.flow on a 25%%-defective 12x12 chip, 5000-step budget: functional=%b@."
    functional;
  ("flow_functional", J.Bool functional) :: !headline

(* ------------------------------------------------------------------ *)
(* E17: BIRA/BISR spare repair vs the BISM schemes                     *)
(* ------------------------------------------------------------------ *)

let e17 () =
  section "E17" "spare repair (BIRA/BISR) vs blind/greedy/hybrid BISM";
  (* Matched comparison on the same n x n silicon: the repair arm
     treats s lines per dimension as spares and repairs a (n-s) x (n-s)
     logical array; the BISM arms map the same (n-s) x (n-s) logical
     array onto the full chip.  Both succeed exactly when s rows and s
     columns can absorb every defect, so exact BIRA must dominate blind
     sampling — that is the gate tools/bench_check enforces. *)
  let n = 16 and trials = 30 and max_configs = 300 in
  Format.printf
    "%dx%d silicon, %d chips per cell, BISM budget %d configurations@.@." n n
    trials max_configs;
  Format.printf "%-9s %-7s %-9s %9s %9s %9s %9s %10s@." "density" "spares"
    "overhead" "repair" "blind" "greedy" "hybrid" "avg spares";
  let totals = Hashtbl.create 4 in
  let add label v =
    Hashtbl.replace totals label
      (v + Option.value ~default:0 (Hashtbl.find_opt totals label))
  in
  let min_margin = ref max_int in
  let max_overhead = ref 0.0 in
  List.iter
    (fun density ->
      List.iter
        (fun s ->
          let k = n - s in
          let seed = 6007 + int_of_float (density *. 1e6) + s in
          let repair, _ =
            R.Bira.monte_carlo ?pool:!the_pool (R.Rng.create seed) ~trials
              ~rows:k ~cols:k ~spare_rows:s ~spare_cols:s
              ~profile:(R.Defect.uniform density)
          in
          let bism scheme =
            let mc, _ =
              R.Bism.monte_carlo ?pool:!the_pool (R.Rng.create seed) scheme
                ~trials ~n ~profile:(R.Defect.uniform density) ~k_rows:k
                ~k_cols:k ~max_configs
            in
            mc.R.Bism.mc_mapped
          in
          let blind = bism R.Bism.Blind in
          let greedy = bism R.Bism.Greedy in
          let hybrid = bism (R.Bism.Hybrid 10) in
          let overhead =
            X.Metrics.spare_overhead ~rows:k ~cols:k ~spare_rows:s
              ~spare_cols:s
          in
          add "repair" repair.R.Bira.mc_repaired;
          add "blind" blind;
          add "greedy" greedy;
          add "hybrid" hybrid;
          min_margin := min !min_margin (repair.R.Bira.mc_repaired - blind);
          max_overhead :=
            Float.max !max_overhead overhead.X.Metrics.area_overhead;
          Format.printf
            "%-9.3f %-7d %8.1f%% %6d/%-2d %6d/%-2d %6d/%-2d %6d/%-2d %10.1f@."
            density s
            (100.0 *. overhead.X.Metrics.area_overhead)
            repair.R.Bira.mc_repaired trials blind trials greedy trials hybrid
            trials repair.R.Bira.mc_avg_spares)
        [ 1; 2; 3 ])
    [ 0.01; 0.03; 0.06 ];
  (* determinism: one repair cell sequential vs pooled, like PAR *)
  let cell pool =
    R.Bira.monte_carlo ?pool (R.Rng.create 6100) ~trials ~rows:(n - 2)
      ~cols:(n - 2) ~spare_rows:2 ~spare_cols:2
      ~profile:(R.Defect.uniform 0.03)
  in
  let identical = cell None = cell !the_pool in
  assert identical;
  Format.printf
    "@.expected shape: exact repair dominates blind at every cell (same \
     feasibility condition, exhaustive search); greedy BISM reconfigures \
     around lines and can rescue more@.";
  let total label = Option.value ~default:0 (Hashtbl.find_opt totals label) in
  [ ("identical", J.Bool identical);
    ("repair_mapped", J.Int (total "repair"));
    ("blind_mapped", J.Int (total "blind"));
    ("greedy_mapped", J.Int (total "greedy"));
    ("hybrid_mapped", J.Int (total "hybrid"));
    ("min_margin_vs_blind", J.Int !min_margin);
    ("max_area_overhead", J.Float !max_overhead) ]

(* ------------------------------------------------------------------ *)
(* E18: exact SAT backends — cover parity and BISM rescue sweep        *)
(* ------------------------------------------------------------------ *)

let e18 () =
  section "E18" "exact SAT backends: cover parity and BISM rescue sweep";
  (* part A: the SAT covering engine must agree with branch-and-bound —
     same minimum size, semantically equivalent cover — on the whole
     core suite plus every multi-output component *)
  let funcs =
    List.map (fun b -> (b.Nxc_suite.name, b.Nxc_suite.func)) (Nxc_suite.core ())
    @ List.concat_map
        (fun mo ->
          List.mapi
            (fun i f -> (Printf.sprintf "%s[%d]" mo.Nxc_suite.multi_name i, f))
            mo.Nxc_suite.outputs)
        (Nxc_suite.multi_output ())
  in
  (* Each minimization runs under its own fresh budget: on the handful
     of genuinely hard instances (the middle rd73 counter bit) BOTH
     engines degrade gracefully — bnb to greedy covering, SAT to its
     best certificate so far — and the parity claim weakens from
     "same size" to "same function", which is exactly the graceful-
     degradation contract. *)
  let budget_steps = 250_000 in
  let identical = ref true and checked = ref 0 and both_exact = ref 0 in
  let cover_certified = ref 0 in
  List.iter
    (fun (name, f) ->
      let module G = Nxc_guard in
      let tt = Boolfunc.table f in
      let n = Truth_table.n_vars tt in
      let on = Truth_table.minterms tt in
      let minimize backend =
        let guard = G.Budget.create ~label:"e18" ~steps:budget_steps () in
        G.Budget.with_current guard (fun () ->
            Qm.minimize_result ~cover_backend:backend ~n on)
      in
      match (minimize Qm.Bnb, minimize Qm.Sat) with
      | Ok (cb, ib), Ok (cs, is) ->
          incr checked;
          List.iter
            (fun (c, st) -> if certified name ~n ~on c st then incr cover_certified)
            [ (cb, ib); (cs, is) ];
          let exact = ib.Qm.exact && is.Qm.exact in
          if exact then incr both_exact
          else
            Format.printf
              "  %s: bnb %d cubes (exact %b), sat %d cubes (exact %b), lower \
               bound %d@."
              name (Cover.num_cubes cb) ib.Qm.exact (Cover.num_cubes cs)
              is.Qm.exact ib.Qm.lower_bound;
          let same =
            Cover.equivalent cb cs
            && ((not exact) || Cover.num_cubes cb = Cover.num_cubes cs)
          in
          if not same then begin
            identical := false;
            Format.printf "  cover mismatch on %s (%d vs %d cubes)@." name
              (Cover.num_cubes cb) (Cover.num_cubes cs)
          end
      | _ ->
          identical := false;
          Format.printf "  minimization failed on %s@." name)
    funcs;
  Format.printf
    "cover parity: %d functions minimized by both backends (%d with both \
     exact), equivalent everywhere, sizes equal whenever exact: %b@."
    !checked !both_exact !identical;
  Format.printf
    "%d of %d covers certified minimum by their lower bound@.@."
    !cover_certified (2 * !checked);
  assert !identical;
  assert (!both_exact > 0);
  (* part B: density sweep where exact assignment rescues chips hybrid
     BISM gave up on — and proves the remainder unmappable, which no
     sampler can do *)
  let n = 12 and k = 10 and trials = 10 and max_configs = 1000 in
  Format.printf
    "mapping %dx%d onto %dx%d, %d chips per density, hybrid budget %d \
     configurations:@.@."
    k k n n trials max_configs;
  Format.printf "%-9s %9s %9s %9s %11s %9s@." "density" "hybrid" "sat"
    "rescues" "unmappable" "degraded";
  let rescues = ref 0 and unmappable = ref 0 and degraded = ref 0 in
  (* what backs each unmappable verdict: a matching certificate the
     oracle accepts, or the solver alone; and whether Bira's exact
     search, a different algorithm, agrees *)
  let certified = ref 0 and refuted = ref 0 and cross_checked = ref 0 in
  let bira_degrades =
    Obs.Metrics.counter "guard.degrade.bira_exact_to_greedy"
  in
  List.iter
    (fun density ->
      let profile = R.Defect.uniform density in
      let hybrid_mapped = ref 0 and sat_mapped = ref 0 in
      let row_rescues = ref 0 and row_unmap = ref 0 and row_degraded = ref 0 in
      for t = 1 to trials do
        let seed = 4099 + int_of_float (density *. 1e6) + t in
        let chip =
          R.Defect.generate (R.Rng.create seed) ~rows:n ~cols:n profile
        in
        let hybrid_stats, _ =
          R.Bism.run
            (R.Rng.create (seed + 1))
            (R.Bism.Hybrid 8) ~chip ~k_rows:k ~k_cols:k ~max_configs
        in
        let hybrid = hybrid_stats.R.Bism.success in
        if hybrid then incr hybrid_mapped;
        let guard =
          Nxc_guard.Budget.create ~label:"e18-sat" ~steps:2_000_000 ()
        in
        match
          Nxc_guard.Budget.with_current guard (fun () ->
              R.Sat_assign.decide ~seed chip ~k_rows:k ~k_cols:k)
        with
        | Ok (R.Sat_assign.Mappable m) ->
            (* the rescue claim rests on this witness *)
            assert (R.Bism.mapping_defect_free chip m);
            incr sat_mapped;
            if not hybrid then incr row_rescues
        | Ok (R.Sat_assign.Unmappable cert) ->
            (* an unmappability proof and a hybrid success can never
               coexist *)
            assert (not hybrid);
            incr row_unmap;
            (match cert with
            | R.Sat_assign.Matching m ->
                if
                  Nxc_oracle.Assign_ref.matching_certifies chip
                    ~spares:(2 * (n - k)) m
                then incr certified
            | R.Sat_assign.Refuted -> incr refuted);
            let before = Obs.Metrics.counter_value bira_degrades in
            (match
               R.Bira.analyze ~mode:R.Bira.Exact chip ~spare_rows:(n - k)
                 ~spare_cols:(n - k)
             with
            | Error (`Unsat _)
              when Obs.Metrics.counter_value bira_degrades = before ->
                incr cross_checked
            | _ -> ())
        | Ok (R.Sat_assign.Degraded _) | Error _ -> incr row_degraded
      done;
      rescues := !rescues + !row_rescues;
      unmappable := !unmappable + !row_unmap;
      degraded := !degraded + !row_degraded;
      Format.printf "%-9.3f %6d/%-2d %6d/%-2d %9d %11d %9d@." density
        !hybrid_mapped trials !sat_mapped trials !row_rescues !row_unmap
        !row_degraded)
    [ 0.04; 0.06; 0.08; 0.10 ];
  Format.printf
    "@.every rescue is a mapping the sampler missed (witness re-checked \
     against the defect map); every unmappable verdict is a proof the \
     sampler could never produce@.";
  Format.printf
    "unmappable verdicts: %d backed by a matching certificate the oracle \
     accepts, %d by a SAT refutation alone; %d confirmed by exact BIRA@."
    !certified !refuted !cross_checked;
  [ ("functions_checked", J.Int !checked);
    ("both_exact", J.Int !both_exact);
    ("exact_certified", J.Int !cover_certified);
    ("identical_covers", J.Bool !identical);
    ("sat_rescues", J.Int !rescues);
    ("confirmed_unmappable", J.Int !unmappable);
    ("unmappable_certified", J.Int !certified);
    ("unmappable_sat_refuted", J.Int !refuted);
    ("unmappable_cross_checked", J.Int !cross_checked);
    ("degraded_trials", J.Int !degraded) ]

(* ------------------------------------------------------------------ *)
(* PAR: pool equivalence and speedup                                   *)
(* ------------------------------------------------------------------ *)

let e_par () =
  section "PAR" "work pool: sequential vs --jobs equivalence and speedup";
  let trials = 40 and n = 32 and k = 12 in
  let work pool =
    R.Bism.monte_carlo ?pool (R.Rng.create 4242) (R.Bism.Hybrid 10) ~trials ~n
      ~profile:(R.Defect.uniform 0.03) ~k_rows:k ~k_cols:k ~max_configs:300
  in
  let time f =
    let t0 = Obs.Clock.now_ns () in
    let v = f () in
    (v, Obs.Clock.ns_to_ms (Obs.Clock.now_ns () - t0))
  in
  let seq, seq_ms = time (fun () -> work None) in
  let par, par_ms = time (fun () -> work !the_pool) in
  let identical = seq = par in
  let slots =
    match !the_pool with None -> 1 | Some p -> Nxc_par.Pool.slots p
  in
  Format.printf
    "%d hybrid BISM trials, --jobs %d (%d runner slots):@.  sequential \
     %.1f ms, pooled %.1f ms, speedup %.2fx, results identical: %b@."
    trials !jobs slots seq_ms par_ms (seq_ms /. par_ms) identical;
  if slots = 1 then
    Format.printf
      "  (single runner slot: pass --jobs N on a multicore host to \
       measure a real speedup)@.";
  (* the whole point: the pool must never change seeded results *)
  assert identical;
  [ ("jobs", J.Int !jobs);
    ("slots", J.Int slots);
    ("identical", J.Bool identical);
    ("seq_ms", J.Float seq_ms);
    ("par_ms", J.Float par_ms);
    ("speedup", J.Float (seq_ms /. par_ms)) ]

(* ------------------------------------------------------------------ *)
(* SERVICE: job engine throughput and NPN cache hit rate               *)
(* ------------------------------------------------------------------ *)

let e_service () =
  section "SERVICE" "job engine: batch throughput and NPN cache hit rate";
  let module Svc = Nxc_service in
  (* Five base functions; every variant below is an NPN transform of
     one of them, re-expressed as a minimized cover string.  A cold
     batch therefore computes each class once and resolves the variants
     from the cache; a warm rerun resolves everything. *)
  let bases =
    [ "x1x2 + x1'x2'"; "x1x2 + x2x3 + x1'x3'"; "x1 ^ x2 ^ x3";
      "(x1 + x2')(x3 + x4)"; "x1x2x3 + x1'x2'x3'" ]
  in
  let variants_per_base = 5 in
  let synth_exprs =
    List.concat_map
      (fun expr ->
        let f = Boolfunc.table (Parse.expr expr) in
        let n = Truth_table.n_vars f in
        let variant i =
          let t =
            { Npn.perm = Array.init n (fun v -> (v + i) mod n);
              input_neg = Array.init n (fun v -> (i lsr v) land 1 = 1);
              output_neg = i land 1 = 1 }
          in
          Cover.to_string (Minimize.sop_table (Npn.apply t f))
        in
        expr :: List.init variants_per_base (fun i -> variant (i + 1)))
      bases
  in
  let jobs_list =
    List.map
      (fun expr ->
        { Svc.Job.id = None; budget_steps = None;
          spec = Svc.Job.Synth { expr; cover_backend = "bnb" } })
      synth_exprs
    @ [ { Svc.Job.id = None; budget_steps = None;
          spec = Svc.Job.Bist { rows = 8; cols = 8 } };
        { Svc.Job.id = None; budget_steps = None;
          spec =
            Svc.Job.Yield { n = 16; density = 0.05; seed = 1; trials = 10 } } ]
  in
  let n_jobs = List.length jobs_list in
  let time f =
    let t0 = Obs.Clock.now_ns () in
    let v = f () in
    (v, Obs.Clock.ns_to_ms (Obs.Clock.now_ns () - t0))
  in
  let cache = Svc.Cache.create () in
  let cold, cold_ms =
    time (fun () -> Svc.Engine.run_jobs ?pool:!the_pool ~cache jobs_list)
  in
  let cold_hits = Svc.Cache.hits cache
  and cold_misses = Svc.Cache.misses cache in
  let warm, warm_ms =
    time (fun () -> Svc.Engine.run_jobs ?pool:!the_pool ~cache jobs_list)
  in
  let warm_hits = Svc.Cache.hits cache - cold_hits in
  let identical =
    List.for_all2
      (fun (a : Svc.Engine.outcome) b ->
        J.to_string a.envelope = J.to_string b.Svc.Engine.envelope)
      cold warm
  in
  let rate ms = float_of_int n_jobs /. (ms /. 1000.0) in
  Format.printf
    "%d jobs (%d synth over %d NPN classes + 2 simulations):@.  cold \
     %.1f ms (%.0f jobs/s), %d hits / %d misses@.  warm %.1f ms (%.0f \
     jobs/s), %d hits (rate %.2f)@.  cold and warm envelopes identical: %b@."
    n_jobs
    (List.length synth_exprs)
    (List.length bases) cold_ms (rate cold_ms) cold_hits cold_misses warm_ms
    (rate warm_ms) warm_hits
    (float_of_int warm_hits /. float_of_int n_jobs)
    identical;
  (* determinism is the service contract *)
  assert identical;
  [ ("jobs", J.Int n_jobs);
    ("cold_ms", J.Float cold_ms);
    ("warm_ms", J.Float warm_ms);
    ("cold_jobs_per_s", J.Float (rate cold_ms));
    ("warm_jobs_per_s", J.Float (rate warm_ms));
    ("cold_hits", J.Int cold_hits);
    ("cold_misses", J.Int cold_misses);
    ("warm_hits", J.Int warm_hits);
    ("warm_hit_rate", J.Float (float_of_int warm_hits /. float_of_int n_jobs));
    ("identical", J.Bool identical) ]

(* ------------------------------------------------------------------ *)
(* LOADGEN: JSONL job-mix replay with latency quantiles                *)
(* ------------------------------------------------------------------ *)

let e_loadgen () =
  section "LOADGEN" "load generator: JSONL job-mix replay, SLO quantiles";
  let module Svc = Nxc_service in
  let lat_cold = Obs.Metrics.hdr "loadgen.latency.cold" in
  let lat_warm = Obs.Metrics.hdr "loadgen.latency.warm" in
  (* The job mix a serving stack would see: NPN variants of a few synth
     classes (cache traffic) plus seeded simulations, serialized to the
     exact JSONL lines the serve/batch CLI accepts. *)
  let bases =
    [ "x1x2 + x1'x2'"; "x1 ^ x2 ^ x3"; "x1x2 + x2x3 + x1'x3'";
      "(x1 + x2')(x3 + x4)" ]
  in
  let variants_per_base = 6 in
  let synth_exprs =
    List.concat_map
      (fun expr ->
        let f = Boolfunc.table (Parse.expr expr) in
        let n = Truth_table.n_vars f in
        let variant i =
          let t =
            { Npn.perm = Array.init n (fun v -> (v + i) mod n);
              input_neg = Array.init n (fun v -> (i lsr v) land 1 = 1);
              output_neg = i land 1 = 1 }
          in
          Cover.to_string (Minimize.sop_table (Npn.apply t f))
        in
        expr :: List.init variants_per_base (fun i -> variant (i + 1)))
      bases
  in
  let jobs_list =
    List.map
      (fun expr ->
        { Svc.Job.id = None; budget_steps = None;
          spec = Svc.Job.Synth { expr; cover_backend = "bnb" } })
      synth_exprs
    @ [ { Svc.Job.id = None; budget_steps = None;
          spec = Svc.Job.Bist { rows = 8; cols = 8 } };
        { Svc.Job.id = None; budget_steps = None;
          spec = Svc.Job.Bism
              { n = 24; k = 10; density = 0.03; seed = 7; trials = 3;
                scheme = "greedy" } };
        { Svc.Job.id = None; budget_steps = None;
          spec =
            Svc.Job.Yield { n = 16; density = 0.05; seed = 1; trials = 8 } } ]
  in
  let lines = List.map (fun j -> J.to_string (Svc.Job.to_json j)) jobs_list in
  let n_jobs = List.length lines in
  let time f =
    let t0 = Obs.Clock.now_ns () in
    let v = f () in
    (v, Obs.Clock.ns_to_ms (Obs.Clock.now_ns () - t0))
  in
  (* serve-style replay: one job at a time, per-job latency into the
     given HDR instrument *)
  let replay hdr cache =
    List.map
      (fun line ->
        let t0 = Obs.Clock.now_ns () in
        let o = Svc.Engine.run_line ~cache line in
        Obs.Metrics.hdr_observe hdr (Obs.Clock.now_ns () - t0);
        o)
      lines
  in
  let cache = Svc.Cache.create () in
  let cold, cold_ms = time (fun () -> replay lat_cold cache) in
  let warm, warm_ms = time (fun () -> replay lat_warm cache) in
  (* batch replay of the same lines at --jobs N on a fresh cache: the
     envelopes must still match the serve-style passes byte for byte *)
  let batch, batch_ms =
    time (fun () ->
        Svc.Engine.run_lines ?pool:!the_pool ~cache:(Svc.Cache.create ()) lines)
  in
  let env (o : Svc.Engine.outcome) = J.to_string o.Svc.Engine.envelope in
  let identical =
    List.for_all2 (fun a b -> env a = env b) cold warm
    && List.for_all2 (fun a b -> env a = env b) cold batch
  in
  let q hdr p = Obs.Clock.ns_to_ms (Obs.Metrics.hdr_quantile hdr p) in
  let rate ms = float_of_int n_jobs /. (ms /. 1000.0) in
  Format.printf
    "replaying %d JSONL jobs (%d synth over %d NPN classes + 3 \
     simulations):@."
    n_jobs (List.length synth_exprs) (List.length bases);
  Format.printf "%-6s %10s %11s %10s %10s %10s@." "pass" "total ms"
    "jobs/s" "p50 ms" "p95 ms" "p99 ms";
  Format.printf "%-6s %10.1f %11.0f %10.3f %10.3f %10.3f@." "cold" cold_ms
    (rate cold_ms) (q lat_cold 0.50) (q lat_cold 0.95) (q lat_cold 0.99);
  Format.printf "%-6s %10.1f %11.0f %10.3f %10.3f %10.3f@." "warm" warm_ms
    (rate warm_ms) (q lat_warm 0.50) (q lat_warm 0.95) (q lat_warm 0.99);
  Format.printf
    "batch replay at --jobs %d: %.1f ms; cold/warm/batch envelopes \
     identical: %b@."
    !jobs batch_ms identical;
  (* determinism is the serving contract; telemetry must not bend it *)
  assert identical;
  (* --jobs sweep: replay the mix through the serve path at each
     concurrency level and two offered loads (the mix once, and the mix
     4x — a hot key distribution).  Level 1 is the historical
     synchronous run_line loop; levels >= 2 go through the pipelined
     Stream (pooled engine + response memo), each level on its own
     sharded cache.  Warm envelopes must stay byte-identical to the
     level-1 baseline at every level. *)
  let levels = [ 1; 2; 4; 8 ] in
  let loads = [ ("light", 1); ("hot", 4) ] in
  let repeat k xs = List.concat (List.init k (fun _ -> xs)) in
  let sweep_level level =
    Nxc_par.Pool.with_jobs level @@ fun pool ->
    let cache = Svc.Cache.create ~shards:level () in
    let stream =
      if level = 1 then None
      else Some (Svc.Engine.Stream.create ?pool ~cache ())
    in
    let run_pass ?hdr load_lines =
      (* returns (outcomes, total ms); per-line enqueue-to-answer
         latency goes to [hdr] when given *)
      let observe = function
        | None -> fun _ -> ()
        | Some h -> fun ns -> Obs.Metrics.hdr_observe h ns
      in
      let obs = observe hdr in
      let t_start = Obs.Clock.now_ns () in
      let outs =
        match stream with
        | None ->
            List.map
              (fun line ->
                let t0 = Obs.Clock.now_ns () in
                let o = Svc.Engine.run_line ~cache line in
                obs (Obs.Clock.now_ns () - t0);
                o)
              load_lines
        | Some stream ->
            let t_enq = Array.make (List.length load_lines) 0 in
            let next = ref 0 in
            let acc = ref [] in
            let consume os =
              List.iter
                (fun o ->
                  obs (Obs.Clock.now_ns () - t_enq.(!next));
                  incr next;
                  acc := o :: !acc)
                os
            in
            List.iteri
              (fun i line ->
                t_enq.(i) <- Obs.Clock.now_ns ();
                consume (Svc.Engine.Stream.push stream line))
              load_lines;
            consume (Svc.Engine.Stream.flush stream);
            List.rev !acc
      in
      (outs, Obs.Clock.ns_to_ms (Obs.Clock.now_ns () - t_start))
    in
    (* cold fill (unmeasured), then five measured passes per offered
       load, timed by their median: a warm pass at --jobs >= 2 takes
       tens of microseconds, so a single GC or scheduling hiccup can
       cut one pass's rate tenfold *)
    ignore (run_pass lines : Svc.Engine.outcome list * float);
    List.map
      (fun (load_name, k) ->
        let hdr =
          Obs.Metrics.hdr
            (Printf.sprintf "loadgen.latency.jobs%d.%s" level load_name)
        in
        let load_lines = repeat k lines in
        let passes = List.init 5 (fun _ -> run_pass ~hdr load_lines) in
        let ms = List.nth (List.sort Float.compare (List.map snd passes)) 2 in
        (load_name, load_lines, List.map fst passes, ms, hdr))
      loads
  in
  let results = List.map (fun level -> (level, sweep_level level)) levels in
  let find_pass level load_name =
    let passes = List.assoc level results in
    let (_, load_lines, outs, ms, hdr) =
      List.find (fun (n, _, _, _, _) -> n = load_name) passes
    in
    (load_lines, outs, ms, hdr)
  in
  let identical_across_jobs =
    List.for_all
      (fun (load_name, _) ->
        let _, base_passes, _, _ = find_pass 1 load_name in
        let base_outs = List.hd base_passes in
        List.for_all
          (fun level ->
            let _, passes, _, _ = find_pass level load_name in
            List.for_all
              (List.for_all2 (fun a b -> env a = env b) base_outs)
              passes)
          levels)
      loads
  in
  Format.printf
    "@.--jobs sweep (light = mix once, hot = mix 4x; level 1 = \
     synchronous serve loop, >= 2 = pipelined stream):@.";
  Format.printf "%-6s %-6s %6s %10s %11s %10s %10s %10s@." "jobs" "load"
    "n" "total ms" "jobs/s" "p50 ms" "p95 ms" "p99 ms";
  let sweep_fields =
    List.concat_map
      (fun level ->
        List.concat_map
          (fun (load_name, _) ->
            let load_lines, _, ms, hdr = find_pass level load_name in
            let n = List.length load_lines in
            let jps = float_of_int n /. (ms /. 1000.0) in
            Format.printf "%-6d %-6s %6d %10.1f %11.0f %10.3f %10.3f %10.3f@."
              level load_name n ms jps (q hdr 0.50) (q hdr 0.95) (q hdr 0.99);
            let field f = Printf.sprintf "%s_%s_jobs%d" load_name f level in
            [ (field "jobs_per_s", J.Float jps);
              (field "p50_ms", J.Float (q hdr 0.50));
              (field "p95_ms", J.Float (q hdr 0.95));
              (field "p99_ms", J.Float (q hdr 0.99)) ])
          loads)
      levels
  in
  let speedup =
    let _, _, ms1, _ = find_pass 1 "hot" in
    let _, _, ms4, _ = find_pass 4 "hot" in
    ms1 /. ms4
  in
  Format.printf
    "warm hot-load throughput at --jobs 4 vs --jobs 1: %.1fx; envelopes \
     identical across levels: %b@."
    speedup identical_across_jobs;
  assert identical_across_jobs;
  [ ("jobs", J.Int n_jobs);
    ("identical", J.Bool identical);
    ("identical_across_jobs", J.Bool identical_across_jobs);
    ("warm_speedup_jobs4", J.Float speedup);
    ("cold_ms", J.Float cold_ms);
    ("warm_ms", J.Float warm_ms);
    ("batch_ms", J.Float batch_ms);
    ("cold_jobs_per_s", J.Float (rate cold_ms));
    ("warm_jobs_per_s", J.Float (rate warm_ms));
    ("cold_p50_ms", J.Float (q lat_cold 0.50));
    ("cold_p95_ms", J.Float (q lat_cold 0.95));
    ("cold_p99_ms", J.Float (q lat_cold 0.99));
    ("warm_p50_ms", J.Float (q lat_warm 0.50));
    ("warm_p95_ms", J.Float (q lat_warm 0.95));
    ("warm_p99_ms", J.Float (q lat_warm 0.99)) ]
  @ sweep_fields

(* ------------------------------------------------------------------ *)
(* BITSLICE: word-parallel lattice kernel vs scalar BFS                *)
(* ------------------------------------------------------------------ *)

let e_bitslice () =
  section "BITSLICE" "bit-sliced lattice evaluation vs per-minterm BFS";
  let rows = 12 and cols = 12 in
  let random_lattice rng ~n =
    let site () =
      match R.Rng.int rng 8 with
      | 0 -> Lt.Lattice.Zero
      | 1 -> Lt.Lattice.One
      | k ->
          Lt.Lattice.Lit
            (R.Rng.int rng n, if k land 1 = 0 then Cube.Pos else Cube.Neg)
    in
    Lt.Lattice.make ~n_vars:n
      (Array.init rows (fun _ -> Array.init cols (fun _ -> site ())))
  in
  let time f =
    let t0 = Obs.Clock.now_ns () in
    let v = f () in
    (v, Obs.Clock.ns_to_ms (Obs.Clock.now_ns () - t0))
  in
  let scratch = Lt.Lattice.scratch () in
  Format.printf
    "full truth-table evaluation of a random %dx%d lattice (one scalar BFS \
     per assignment vs one word-parallel kernel pass):@.@."
    rows cols;
  Format.printf "%-4s %12s %12s %9s %14s %14s@." "n" "scalar ms" "kernel ms"
    "speedup" "scalar kwords" "kernel kwords";
  let identical = ref true and min_speedup = ref infinity in
  let per_n =
    List.map
      (fun n ->
        let l = random_lattice (R.Rng.create (1000 + n)) ~n in
        let mw0 = Gc.minor_words () in
        let scalar_tt, scalar_ms =
          time (fun () -> Truth_table.of_fun_int n (Lt.Lattice.eval_int l))
        in
        let scalar_words = Gc.minor_words () -. mw0 in
        (* the kernel is fast enough to need amortizing over repeats *)
        let reps = 25 in
        let mw1 = Gc.minor_words () in
        let kernel_tt, kernel_total_ms =
          time (fun () ->
              let t = ref (Lt.Lattice.eval_all ~scratch l) in
              for _ = 2 to reps do
                t := Lt.Lattice.eval_all ~scratch l
              done;
              !t)
        in
        let kernel_words =
          (Gc.minor_words () -. mw1) /. float_of_int reps
        in
        let kernel_ms = kernel_total_ms /. float_of_int reps in
        let ok = Truth_table.equal scalar_tt kernel_tt in
        identical := !identical && ok;
        let speedup = scalar_ms /. kernel_ms in
        if speedup < !min_speedup then min_speedup := speedup;
        Format.printf "%-4d %12.2f %12.4f %8.0fx %14.1f %14.1f@." n scalar_ms
          kernel_ms speedup (scalar_words /. 1e3) (kernel_words /. 1e3);
        (n, scalar_ms, kernel_ms, speedup, scalar_words, kernel_words))
      [ 10; 11; 12 ]
  in
  Format.printf
    "@.same tables from both paths: %b; scratch reuse keeps the kernel's \
     per-call allocation at the output table itself@."
    !identical;
  (* both halves of the contract: bit-identical results, real speedup *)
  assert !identical;
  assert (!min_speedup >= 4.0);
  ("identical", J.Bool !identical)
  :: ("min_speedup", J.Float !min_speedup)
  :: List.concat_map
       (fun (n, s_ms, k_ms, sp, s_w, k_w) ->
         let tag suffix = Printf.sprintf "n%d_%s" n suffix in
         [ (tag "scalar_ms", J.Float s_ms);
           (tag "kernel_ms", J.Float k_ms);
           (tag "speedup", J.Float sp);
           (tag "scalar_minor_words", J.Float s_w);
           (tag "kernel_minor_words", J.Float k_w) ])
       per_n

(* ------------------------------------------------------------------ *)
(* BISTSLICE: word-parallel BIST syndrome collection vs scalar sweep   *)
(* ------------------------------------------------------------------ *)

let e_bistslice () =
  section "BISTSLICE" "bit-sliced BIST syndrome sweep vs per-vector scalar";
  let time f =
    let t0 = Obs.Clock.now_ns () in
    let v = f () in
    (v, Obs.Clock.ns_to_ms (Obs.Clock.now_ns () - t0))
  in
  Format.printf
    "full-universe syndrome sweep (every fault's failing (config, vector) \
     pairs), per-vector scalar evaluation vs one packed kernel pass per \
     configuration:@.@.";
  Format.printf "%-8s %8s %9s %12s %12s %9s@." "array" "faults" "vectors"
    "scalar ms" "packed ms" "speedup";
  let identical = ref true and min_speedup = ref infinity in
  let per_shape =
    List.map
      (fun (m, n) ->
        let plan = R.Bist.plan ~rows:m ~cols:n in
        let universe = R.Fault_model.universe ~rows:m ~cols:n in
        let scalar, scalar_ms =
          time (fun () ->
              List.map
                (fun f -> Nxc_oracle.Bist_ref.syndrome_scalar plan [ f ])
                universe)
        in
        let packed, packed_ms =
          time (fun () ->
              let pd = R.Bist.pack plan in
              List.map (R.Bist.syndrome_packed pd) universe)
        in
        let ok = scalar = packed in
        identical := !identical && ok;
        let speedup = scalar_ms /. packed_ms in
        if speedup < !min_speedup then min_speedup := speedup;
        Format.printf "%2dx%-5d %8d %9d %12.1f %12.2f %8.0fx@." m n
          (List.length universe) (R.Bist.num_vectors plan) scalar_ms packed_ms
          speedup;
        (m, n, scalar_ms, packed_ms, speedup))
      [ (8, 8); (16, 16); (16, 48) ]
  in
  Format.printf
    "@.identical syndromes from both paths: %b (pack asserts plan soundness \
     once; the scalar path re-asserts it per vector visit)@."
    !identical;
  (* both halves of the contract: bit-identical syndromes, real speedup *)
  assert !identical;
  assert (!min_speedup >= 4.0);
  ("identical", J.Bool !identical)
  :: ("min_speedup", J.Float !min_speedup)
  :: List.concat_map
       (fun (m, n, s_ms, p_ms, sp) ->
         let tag suffix = Printf.sprintf "b%dx%d_%s" m n suffix in
         [ (tag "scalar_ms", J.Float s_ms);
           (tag "packed_ms", J.Float p_ms);
           (tag "speedup", J.Float sp) ])
       per_shape

(* ------------------------------------------------------------------ *)
(* NPNKEY: packed-key NPN search vs per-transform apply + compare      *)
(* ------------------------------------------------------------------ *)

let e_npnkey () =
  section "NPNKEY" "packed-key NPN canonicalization vs scalar transform scan";
  let time f =
    let t0 = Obs.Clock.now_ns () in
    let v = f () in
    (v, Obs.Clock.ns_to_ms (Obs.Clock.now_ns () - t0))
  in
  Format.printf
    "canonical transform and table of a fixed seeded set of tables \
     (scalar apply + compare over every transform vs Npn.canonical):@.@.";
  Format.printf "%-4s %7s %12s %12s %9s@." "n" "tables" "oracle ms"
    "kernel ms" "speedup";
  let identical = ref true in
  let per_n =
    List.map
      (fun (n, count) ->
        let tables =
          List.init count (fun i -> Nxc_oracle.Logic_ref.random_table n ~seed:(7919 * (i + 1)))
        in
        let expect, oracle_ms =
          time (fun () ->
              List.map Nxc_oracle.Npn_ref.reference_canonical tables)
        in
        let got, kernel_ms =
          time (fun () -> List.map (fun f -> Npn.canonical f) tables)
        in
        let ok =
          List.for_all2
            (fun (t, g) (t', g') -> t = t' && Truth_table.equal g g')
            expect got
        in
        identical := !identical && ok;
        Format.printf "%-4d %7d %12.1f %12.2f %8.0fx@." n count oracle_ms
          kernel_ms (oracle_ms /. kernel_ms);
        (n, oracle_ms, kernel_ms))
      [ (4, 200); (5, 40) ]
  in
  let oracle_ms = List.fold_left (fun a (_, o, _) -> a +. o) 0.0 per_n
  and kernel_ms = List.fold_left (fun a (_, _, k) -> a +. k) 0.0 per_n in
  let speedup = oracle_ms /. kernel_ms in
  Format.printf "@.same transform and table from both paths: %b; %.0fx overall@."
    !identical speedup;
  (* both halves of the contract: identical keys, real speedup *)
  assert !identical;
  assert (speedup >= 4.0);
  [ ("identical", J.Bool !identical);
    ("oracle_ms", J.Float oracle_ms);
    ("kernel_ms", J.Float kernel_ms);
    ("speedup", J.Float speedup) ]
  @ List.concat_map
      (fun (n, o_ms, k_ms) ->
        let tag suffix = Printf.sprintf "n%d_%s" n suffix in
        [ (tag "oracle_ms", J.Float o_ms); (tag "kernel_ms", J.Float k_ms) ])
      per_n

(* ------------------------------------------------------------------ *)

let experiments =
  [ ("E1", e1); ("E2", e2); ("E3", e3); ("E4", e4); ("E5", e5); ("E6", e6);
    ("E7", e7); ("E8", e8); ("E9", e9); ("E10", e10); ("E11", e11);
    ("E12", e12); ("E13", e13); ("E14", e14); ("E15", e15); ("E16", e16);
    ("E17", e17); ("E18", e18); ("PAR", e_par); ("SERVICE", e_service); ("LOADGEN", e_loadgen);
    ("BITSLICE", e_bitslice); ("BISTSLICE", e_bistslice); ("NPNKEY", e_npnkey);
    ("TIMING", timing) ]

(* Run one experiment under a wall-clock timer with a fresh metrics
   registry, and capture the headline numbers plus the metric snapshot. *)
let run_one id f =
  Obs.Metrics.reset ();
  let t0 = Obs.Clock.now_ns () in
  let headline = f () in
  let dur_ns = Obs.Clock.now_ns () - t0 in
  J.Obj
    [ ("id", J.Str id);
      ("wall_ms", J.Float (Obs.Clock.ns_to_ms dur_ns));
      ("headline", J.Obj headline);
      ("metrics", Obs.Metrics.dump_json ()) ]

let () =
  (* accept --jobs N / -j N / --jobs=N anywhere among the experiment
     ids; everything else must be an experiment name *)
  let rec parse_args acc = function
    | [] -> List.rev acc
    | ("--jobs" | "-j") :: v :: rest ->
        jobs := int_of_string v;
        parse_args acc rest
    | arg :: rest when String.length arg > 7 && String.sub arg 0 7 = "--jobs=" ->
        jobs := int_of_string (String.sub arg 7 (String.length arg - 7));
        parse_args acc rest
    | arg :: rest -> parse_args (arg :: acc) rest
  in
  let requested =
    match parse_args [] (List.tl (Array.to_list Sys.argv)) with
    | [] -> List.map fst experiments
    | args -> args
  in
  Nxc_par.Pool.with_jobs !jobs @@ fun pool ->
  the_pool := pool;
  let records =
    try
      List.map
        (fun id ->
          match List.assoc_opt (String.uppercase_ascii id) experiments with
          | Some f -> run_one (String.uppercase_ascii id) f
          | None ->
              Format.eprintf "unknown experiment %s (have: %s)@." id
                (String.concat ", " (List.map fst experiments));
              exit 2)
        requested
    with e ->
      (* dump the flight-recorder ring so CI can attach what the bench
         was doing when an assertion tripped *)
      let oc = open_out "flight.jsonl" in
      let ppf = Format.formatter_of_out_channel oc in
      Obs.Recorder.export_jsonl ppf;
      Format.pp_print_flush ppf ();
      close_out oc;
      Format.eprintf "bench failed (%s); flight recorder in flight.jsonl@."
        (Printexc.to_string e);
      raise e
  in
  let out =
    Option.value (Sys.getenv_opt "BENCH_OUT") ~default:"BENCH_results.json"
  in
  let doc =
    J.Obj
      [ ("schema", J.Str "nanoxcomp-bench/1");
        ("jobs", J.Int !jobs);
        ("experiments", J.List records) ]
  in
  let oc = open_out out in
  output_string oc (J.to_string doc);
  output_char oc '\n';
  close_out oc;
  Format.printf "@.wrote %s (%d experiments)@." out (List.length records)
