(* Tests for Nxc_reliability: RNG, defect maps, the fault model, BIST
   coverage (the paper's 100% claim), BISD localization, the three BISM
   schemes, the defect-unaware flow, variation and yield models. *)

open Nxc_reliability
module Fm = Fault_model
module Bist_ref = Nxc_oracle.Bist_ref

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let qtest = Testutil.qtest

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let rng_tests =
  [
    Alcotest.test_case "determinism" `Quick (fun () ->
        let a = Rng.create 7 and b = Rng.create 7 in
        for _ = 1 to 100 do
          check_int "same stream" (Rng.int a 1000) (Rng.int b 1000)
        done);
    Alcotest.test_case "different seeds differ" `Quick (fun () ->
        let a = Rng.create 1 and b = Rng.create 2 in
        let sa = List.init 20 (fun _ -> Rng.int a 1_000_000) in
        let sb = List.init 20 (fun _ -> Rng.int b 1_000_000) in
        check "streams differ" false (sa = sb));
    Alcotest.test_case "int respects bound" `Quick (fun () ->
        let r = Rng.create 3 in
        for _ = 1 to 1000 do
          let x = Rng.int r 17 in
          check "in range" true (x >= 0 && x < 17)
        done);
    Alcotest.test_case "bernoulli extremes" `Quick (fun () ->
        let r = Rng.create 4 in
        for _ = 1 to 100 do
          check "p=0 never" false (Rng.bool r 0.0);
          check "p=1 always" true (Rng.bool r 1.0)
        done);
    Alcotest.test_case "gaussian moments" `Quick (fun () ->
        let r = Rng.create 5 in
        let n = 20_000 in
        let xs = Array.init n (fun _ -> Rng.gaussian r) in
        let mean = Array.fold_left ( +. ) 0.0 xs /. float_of_int n in
        let var =
          Array.fold_left (fun a x -> a +. ((x -. mean) ** 2.0)) 0.0 xs
          /. float_of_int n
        in
        check "mean near 0" true (abs_float mean < 0.05);
        check "variance near 1" true (abs_float (var -. 1.0) < 0.08));
    Alcotest.test_case "sampling without replacement" `Quick (fun () ->
        let r = Rng.create 6 in
        for _ = 1 to 50 do
          let s = Rng.sample_without_replacement r 8 20 in
          check_int "size" 8 (Array.length s);
          let sorted = List.sort_uniq compare (Array.to_list s) in
          check_int "distinct" 8 (List.length sorted);
          check "in range" true (List.for_all (fun x -> x >= 0 && x < 20) sorted)
        done);
    Alcotest.test_case "split independence" `Quick (fun () ->
        let a = Rng.create 9 in
        let b = Rng.split a in
        let xs = List.init 10 (fun _ -> Rng.int a 1000) in
        let ys = List.init 10 (fun _ -> Rng.int b 1000) in
        check "different streams" false (xs = ys));
    Alcotest.test_case "sibling splits are uncorrelated (smoke)" `Quick
      (fun () ->
        (* sibling streams split off one parent — exactly what the
           parallel Monte-Carlo entry points hand each trial *)
        let parent = Rng.create 10 in
        let a = Rng.split parent in
        let b = Rng.split parent in
        let n = 4096 in
        let xs = Array.init n (fun _ -> Rng.float a 1.0) in
        let ys = Array.init n (fun _ -> Rng.float b 1.0) in
        let mean v = Array.fold_left ( +. ) 0.0 v /. float_of_int n in
        let mx = mean xs and my = mean ys in
        let dot = ref 0.0 and vx = ref 0.0 and vy = ref 0.0 in
        for i = 0 to n - 1 do
          dot := !dot +. ((xs.(i) -. mx) *. (ys.(i) -. my));
          vx := !vx +. ((xs.(i) -. mx) ** 2.0);
          vy := !vy +. ((ys.(i) -. my) ** 2.0)
        done;
        let pearson = !dot /. sqrt (!vx *. !vy) in
        (* for truly independent streams |r| ~ 1/sqrt(n) ~ 0.016; 0.08
           is five sigmas away and stable because the seed is fixed *)
        check "|pearson r| below 0.08" true (Float.abs pearson < 0.08);
        check "streams differ" false (xs = ys));
  ]

(* ------------------------------------------------------------------ *)
(* Defect maps                                                         *)
(* ------------------------------------------------------------------ *)

(* defective crosspoints of a map, probed one at a time *)
let defect_count m =
  let n = ref 0 in
  for r = 0 to Defect.rows m - 1 do
    for c = 0 to Defect.cols m - 1 do
      if Defect.is_defective m r c then incr n
    done
  done;
  !n

let defect_tests =
  [
    Alcotest.test_case "perfect map" `Quick (fun () ->
        let m = Defect.perfect ~rows:8 ~cols:8 in
        check_int "no defects" 0 (defect_count m);
        check "density zero" true (Defect.actual_density m = 0.0));
    Alcotest.test_case "uniform density is approximately honored" `Quick
      (fun () ->
        let rng = Rng.create 11 in
        let m = Defect.generate rng ~rows:100 ~cols:100 (Defect.uniform 0.10) in
        let d = Defect.actual_density m in
        check "near 10%" true (d > 0.08 && d < 0.12));
    Alcotest.test_case "kind mix follows the profile" `Quick (fun () ->
        let rng = Rng.create 12 in
        let m = Defect.generate rng ~rows:200 ~cols:200 (Defect.uniform 0.10) in
        let count k =
          let n = ref 0 in
          for r = 0 to 199 do
            for c = 0 to 199 do
              if Defect.kind_at m r c = Some k then incr n
            done
          done;
          !n
        in
        let opens = count Defect.Stuck_open
        and closed = count Defect.Stuck_closed
        and bridges = count Defect.Bridge in
        let total = float_of_int (opens + closed + bridges) in
        check "opens dominate" true (float_of_int opens /. total > 0.7);
        check "bridges are rare" true (float_of_int bridges /. total < 0.12);
        check "closed in between" true
          (float_of_int closed /. total > 0.08
          && float_of_int closed /. total < 0.25));
    Alcotest.test_case "clustered maps cluster" `Quick (fun () ->
        let rng = Rng.create 13 in
        let m =
          Defect.generate rng ~rows:80 ~cols:80 (Defect.clustered 0.08)
        in
        (* local density variance should exceed a uniform map's:
           compare max 10x10 tile count against the mean tile count *)
        let tile tr tc =
          let n = ref 0 in
          for r = tr * 10 to (tr * 10) + 9 do
            for c = tc * 10 to (tc * 10) + 9 do
              if Defect.is_defective m r c then incr n
            done
          done;
          !n
        in
        let tiles = List.concat_map (fun r -> List.map (tile r) (List.init 8 Fun.id)) (List.init 8 Fun.id) in
        let mx = List.fold_left max 0 tiles in
        let mean =
          float_of_int (List.fold_left ( + ) 0 tiles) /. 64.0
        in
        check "hot tile well above mean" true (float_of_int mx > 3.0 *. mean));
    Alcotest.test_case "with_defect is functional" `Quick (fun () ->
        let m = Defect.perfect ~rows:4 ~cols:4 in
        let m' = Defect.with_defect m 1 2 Defect.Stuck_open in
        check_int "original untouched" 0 (defect_count m);
        check_int "updated has one" 1 (defect_count m');
        check "kind" true (Defect.kind_at m' 1 2 = Some Defect.Stuck_open));
    Alcotest.test_case "profile validation edges" `Quick (fun () ->
        (* [Defect.generate] validates its profile first *)
        let ok p =
          match Defect.generate (Rng.create 1) ~rows:2 ~cols:2 p with
          | _ -> true
          | exception Invalid_argument _ -> false
        in
        let bad p = not (ok p) in
        (* the closed endpoints of every range are legal *)
        check "density 0" true (ok (Defect.uniform 0.0));
        check "density 1" true (ok (Defect.uniform 1.0));
        check "fractions may sum to exactly 1" true
          (ok { (Defect.uniform 0.1) with Defect.frac_open = 0.6;
                frac_closed = 0.4 });
        check "zero clusters, zero radius" true
          (ok { (Defect.uniform 0.1) with Defect.clusters = 0;
                cluster_radius = 0.0 });
        (* one step outside each range is a typed invalid-input *)
        check "density above 1" true (bad (Defect.uniform 1.5));
        check "density below 0" true (bad (Defect.uniform (-0.01)));
        check "density NaN" true (bad (Defect.uniform Float.nan));
        check "frac_open above 1" true
          (bad { (Defect.uniform 0.1) with Defect.frac_open = 1.01 });
        check "frac_closed negative" true
          (bad { (Defect.uniform 0.1) with Defect.frac_closed = -0.2 });
        check "fractions summing past 1" true
          (bad { (Defect.uniform 0.1) with Defect.frac_open = 0.7;
                 frac_closed = 0.5 });
        check "negative clusters" true
          (bad { (Defect.uniform 0.1) with Defect.clusters = -1 });
        check "negative cluster radius" true
          (bad { (Defect.uniform 0.1) with Defect.cluster_radius = -0.5 });
        check "NaN cluster radius" true
          (bad { (Defect.uniform 0.1) with Defect.cluster_radius = Float.nan }));
    Alcotest.test_case "generate rejects what validation rejects" `Quick
      (fun () ->
        let raises ~rows ~cols p =
          match Defect.generate (Rng.create 1) ~rows ~cols p with
          | exception Invalid_argument _ -> true
          | _ -> false
        in
        check "bad profile" true (raises ~rows:8 ~cols:8 (Defect.uniform 2.0));
        check "bad dims" true (raises ~rows:0 ~cols:8 (Defect.uniform 0.1));
        check "good profile generates" false
          (raises ~rows:8 ~cols:8 (Defect.uniform 0.1)));
    qtest ~count:80 "selection_defect_free ≡ probing the cross product"
      QCheck.(triple (int_range 1 20) (int_range 1 80) (int_bound 10_000))
      (fun (rows, cols, seed) ->
        let chip =
          Defect.generate (Rng.create seed) ~rows ~cols (Defect.uniform 0.15)
        in
        let pick n k off =
          Array.init (min k n) (fun i -> ((seed + off + (i * 13)) mod n))
        in
        let sel_rows = pick rows (1 + (seed mod rows)) 0 in
        let sel_cols = pick cols (1 + (seed mod cols)) 7 in
        let naive =
          Array.for_all
            (fun r ->
              Array.for_all
                (fun c -> not (Defect.is_defective chip r c))
                sel_cols)
            sel_rows
        in
        Defect.selection_defect_free chip ~sel_rows ~sel_cols = naive);
    Alcotest.test_case "row bitmaps track every constructor" `Quick (fun () ->
        let chip = Defect.perfect ~rows:3 ~cols:70 in
        check "perfect is clean" true
          (Array.for_all (( = ) 0) (Defect.row_words chip 2));
        let chip' = Defect.with_defect chip 2 66 Defect.Stuck_open in
        check "with_defect sets the bit" true
          (Defect.selection_defect_free chip' ~sel_rows:[| 0; 1 |]
             ~sel_cols:[| 66 |]
          && not
               (Defect.selection_defect_free chip' ~sel_rows:[| 2 |]
                  ~sel_cols:[| 66 |]));
        (* generated maps agree bit-for-bit with the kind matrix *)
        let g =
          Defect.generate (Rng.create 7) ~rows:5 ~cols:130 (Defect.uniform 0.2)
        in
        let ok = ref true in
        for r = 0 to 4 do
          let words = Defect.row_words g r in
          for c = 0 to 129 do
            let bit =
              words.(c / Nxc_logic.Bitslice.word_bits)
              land (1 lsl (c mod Nxc_logic.Bitslice.word_bits))
              <> 0
            in
            if bit <> Defect.is_defective g r c then ok := false
          done
        done;
        check "bitmap mirrors map" true !ok);
  ]

(* ------------------------------------------------------------------ *)
(* Fault model                                                         *)
(* ------------------------------------------------------------------ *)

let fault_model_tests =
  [
    Alcotest.test_case "single-term config computes AND" `Quick (fun () ->
        let cfg = Fm.single_term ~rows:3 ~cols:4 1 in
        check "all ones" true (Bist_ref.eval cfg [| true; true; true; true |]);
        check "one zero" false (Bist_ref.eval cfg [| true; false; true; true |]));
    Alcotest.test_case "universe size formula" `Quick (fun () ->
        (* 2mn xpoints + 3m row faults + 2n col faults + bridges *)
        let m = 4 and n = 5 in
        check_int "count"
          ((2 * m * n) + (3 * m) + (2 * n) + (m - 1) + (n - 1))
          (Fm.num_faults ~rows:m ~cols:n));
    Alcotest.test_case "stuck-open widens the product" `Quick (fun () ->
        let cfg = Fm.single_term ~rows:2 ~cols:3 0 in
        let v = [| true; false; true |] in
        check "fault-free is 0" false (Bist_ref.eval cfg v);
        check "ignoring the 0 input gives 1" true
          (Bist_ref.eval ~fault:(Fm.Xpoint_stuck_open (0, 1)) cfg v));
    Alcotest.test_case "stuck-closed narrows the product" `Quick (fun () ->
        let cfg = Fm.empty_config ~rows:2 ~cols:3 in
        cfg.Fm.programmed.(0).(0) <- true;
        cfg.Fm.observed.(0) <- true;
        let v = [| true; false; true |] in
        check "fault-free is 1" true (Bist_ref.eval cfg v);
        check "extra device reads the 0" false
          (Bist_ref.eval ~fault:(Fm.Xpoint_stuck_closed (0, 1)) cfg v));
    Alcotest.test_case "row and column stuck" `Quick (fun () ->
        let cfg = Fm.single_term ~rows:2 ~cols:2 0 in
        check "row stuck 0" false
          (Bist_ref.eval ~fault:(Fm.Row_stuck (0, false)) cfg [| true; true |]);
        check "col stuck 1 rescues a 0 input" true
          (Bist_ref.eval ~fault:(Fm.Col_stuck (1, true)) cfg [| true; false |]));
    Alcotest.test_case "bridges are AND-type" `Quick (fun () ->
        let cfg = Fm.single_term ~rows:2 ~cols:2 0 in
        (* col bridge: both columns read the AND *)
        check "col bridge kills mixed input" false
          (Bist_ref.eval ~fault:(Fm.Bridge_cols 0) cfg [| true; false |]
          || Bist_ref.eval ~fault:(Fm.Bridge_cols 0) cfg [| false; true |]));
    Alcotest.test_case "output open silences the row" `Quick (fun () ->
        let cfg = Fm.single_term ~rows:2 ~cols:2 1 in
        check "fault-free" true (Bist_ref.eval cfg [| true; true |]);
        check "opened" false
          (Bist_ref.eval ~fault:(Fm.Output_open 1) cfg [| true; true |]));
    Alcotest.test_case "of_defect translation" `Quick (fun () ->
        let m = Defect.perfect ~rows:3 ~cols:3 in
        let m = Defect.with_defect m 0 1 Defect.Stuck_open in
        let m = Defect.with_defect m 2 2 Defect.Bridge in
        check "open" true (Fm.of_defect m 0 1 = Some (Fm.Xpoint_stuck_open (0, 1)));
        check "bridge clamped to edge" true
          (Fm.of_defect m 2 2 = Some (Fm.Bridge_cols 1));
        check "clean" true (Fm.of_defect m 1 1 = None));
  ]

(* ------------------------------------------------------------------ *)
(* BIST                                                                *)
(* ------------------------------------------------------------------ *)

let full_coverage ~rows ~cols =
  let p = Bist.plan ~rows ~cols in
  let cov, undetected = Bist.coverage p (Fm.universe ~rows ~cols) in
  (p, cov, undetected)

let bist_tests =
  [
    Alcotest.test_case "100% coverage on square arrays" `Quick (fun () ->
        List.iter
          (fun n ->
            let _, cov, und = full_coverage ~rows:n ~cols:n in
            if und <> [] then
              Alcotest.failf "undetected on %dx%d: %s" n n
                (String.concat ", "
                   (List.map (Format.asprintf "%a" Fm.pp_fault) und));
            check "coverage" true (cov = 1.0))
          [ 2; 3; 4; 6; 8 ]);
    Alcotest.test_case "100% coverage on rectangular arrays" `Quick (fun () ->
        List.iter
          (fun (m, n) ->
            let _, cov, und = full_coverage ~rows:m ~cols:n in
            if und <> [] then
              Alcotest.failf "undetected on %dx%d: %s" m n
                (String.concat ", "
                   (List.map (Format.asprintf "%a" Fm.pp_fault) und));
            check "coverage" true (cov = 1.0))
          [ (1, 2); (1, 7); (2, 9); (3, 5); (5, 3); (9, 2); (12, 4); (4, 12) ]);
    qtest ~count:40 "100% coverage on random shapes"
      QCheck.(pair (int_range 1 9) (int_range 2 9))
      (fun (rows, cols) ->
        let _, cov, _ = full_coverage ~rows ~cols in
        cov = 1.0);
    Alcotest.test_case "group configurations are logarithmic" `Quick (fun () ->
        List.iter
          (fun m ->
            let p = Bist.plan ~rows:m ~cols:8 in
            let bits =
              let rec go b = if 1 lsl b >= m then b else go (b + 1) in
              max 1 (go 0)
            in
            check "at most 2 per bit" true
              (Bisd.num_group_configs p <= 2 * bits))
          [ 2; 4; 8; 16; 32; 64 ]);
    Alcotest.test_case "passes on a perfect chip, fails with a fault" `Quick
      (fun () ->
        let p = Bist.plan ~rows:4 ~cols:4 in
        check "perfect passes" true (Bist_ref.syndrome_scalar p [] = []);
        check "faulty fails" false
          (Bist.syndrome p (Fm.Xpoint_stuck_open (2, 1)) = []));
    Alcotest.test_case "vector count stays linear-ish" `Quick (fun () ->
        let p = Bist.plan ~rows:8 ~cols:8 in
        check "configs" true (Bist.num_configs p <= 16);
        check "vectors" true (Bist.num_vectors p <= 8 * 8 * 4));
  ]

(* ------------------------------------------------------------------ *)
(* Packed (word-parallel) BIST path vs the scalar reference            *)
(* ------------------------------------------------------------------ *)

let fault_sample universe seed k =
  let n = Array.length universe in
  List.init k (fun i -> universe.(((seed * 31) + (i * 97)) mod n))

(* A sound plan that no longer detects every fault: drop every third
   configuration (by [seed]) and all but every other vector of the rest. *)
let thin_plan (p : Bist.plan) seed =
  let configs =
    List.filteri (fun ci _ -> (ci + seed) mod 3 <> 0) p.Bist.configs
    |> List.map (fun tc ->
           { tc with
             Bist.tests =
               List.filteri (fun vi _ -> (vi + seed) mod 2 = 0) tc.Bist.tests
           })
    |> List.filter (fun tc -> tc.Bist.tests <> [])
  in
  { p with Bist.configs }

let packed_tests =
  [
    qtest ~count:60 "eval_block ≡ eval_multi per vector"
      QCheck.(triple (int_range 1 6) (int_range 2 7) (int_bound 10_000))
      (fun (rows, cols, seed) ->
        let universe = Array.of_list (Fm.universe ~rows ~cols) in
        let faults = fault_sample universe seed (1 + (seed mod 3)) in
        (* a config with a mix of programmed/observed rows *)
        let cfg = Fm.empty_config ~rows ~cols in
        for r = 0 to rows - 1 do
          cfg.Fm.observed.(r) <- (seed + r) mod 3 <> 0;
          for c = 0 to cols - 1 do
            cfg.Fm.programmed.(r).(c) <- (seed + (r * cols) + c) mod 2 = 0
          done
        done;
        let count = 1 + (seed mod 130) in
        let vectors =
          Array.init count (fun j ->
              Array.init cols (fun c -> (seed + (j * cols) + c) mod 3 <> 1))
        in
        let blk = Fm.pack_vectors ~cols vectors in
        let obs = Array.make (Fm.block_words blk) 0 in
        Fm.eval_block ~faults cfg blk ~into:obs;
        let ok = ref true in
        Array.iteri
          (fun j v ->
            let want = Bist_ref.eval_multi ~faults cfg v in
            let got =
              obs.(j / Nxc_logic.Bitslice.word_bits)
              land (1 lsl (j mod Nxc_logic.Bitslice.word_bits))
              <> 0
            in
            if want <> got then ok := false)
          vectors;
        !ok);
    qtest ~count:30 "packed syndrome ≡ scalar syndrome"
      QCheck.(triple (int_range 1 7) (int_range 2 8) (int_bound 10_000))
      (fun (rows, cols, seed) ->
        let plan = Bist.plan ~rows ~cols in
        let pd = Bist.pack plan in
        let universe = Array.of_list (Fm.universe ~rows ~cols) in
        fault_sample universe seed 8
        |> List.for_all (fun f ->
               Bist.syndrome_packed pd f
               = Bist_ref.syndrome_scalar plan [ f ]));
    qtest ~count:30 "packed multi-fault syndrome ≡ inline scalar"
      QCheck.(triple (int_range 1 6) (int_range 2 7) (int_bound 10_000))
      (fun (rows, cols, seed) ->
        let plan = Bist.plan ~rows ~cols in
        let universe = Array.of_list (Fm.universe ~rows ~cols) in
        let faults = fault_sample universe seed (1 + (seed mod 4)) in
        (* the packed kernel under all the faults at once, pair by pair *)
        let packed =
          List.concat
            (List.mapi
               (fun ci (tc : Bist.test_config) ->
                 let vectors =
                   Array.of_list (List.map (fun t -> t.Bist.vector) tc.tests)
                 in
                 let blk = Fm.pack_vectors ~cols vectors in
                 let obs = Array.make (Fm.block_words blk) 0 in
                 Fm.eval_block ~faults tc.config blk ~into:obs;
                 List.concat
                   (List.mapi
                      (fun vi t ->
                        let w = vi / Nxc_logic.Bitslice.word_bits
                        and b = vi mod Nxc_logic.Bitslice.word_bits in
                        if obs.(w) land (1 lsl b) <> 0 <> t.Bist.expected then
                          [ (ci, vi) ]
                        else [])
                      tc.tests))
               plan.Bist.configs)
        in
        packed = Bist_ref.syndrome_scalar plan faults);
    qtest ~count:30 "coverage verdicts ≡ oracle on thinned plans"
      QCheck.(triple (int_range 1 6) (int_range 2 7) (int_bound 10_000))
      (fun (rows, cols, seed) ->
        let plan = thin_plan (Bist.plan ~rows ~cols) seed in
        let faults = Fm.universe ~rows ~cols in
        let missed =
          List.filter (fun f -> Bist_ref.syndrome_scalar plan [ f ] = []) faults
        in
        snd (Bist.coverage plan faults) = missed);
    Alcotest.test_case "thinned plan misses some faults, catches others"
      `Quick (fun () ->
        (* pins that the thinned plans above exercise both verdicts *)
        let plan = thin_plan (Bist.plan ~rows:4 ~cols:4) 1 in
        let faults = Fm.universe ~rows:4 ~cols:4 in
        let cov, missed = Bist.coverage plan faults in
        check "some missed" true (missed <> []);
        check "some caught" true (cov > 0.0);
        check "oracle agrees" true
          (missed
          = List.filter
              (fun f -> Bist_ref.syndrome_scalar plan [ f ] = [])
              faults));
    Alcotest.test_case "syndrome pair order is ascending" `Quick (fun () ->
        let plan = Bist.plan ~rows:6 ~cols:6 in
        let pd = Bist.pack plan in
        List.iter
          (fun f ->
            let s = Bist.syndrome_packed pd f in
            check "sorted" true (List.sort compare s = s))
          (Fm.universe ~rows:6 ~cols:6));
    Alcotest.test_case "packed path reuses scratch across shapes" `Quick
      (fun () ->
        (* interleaved syndromes over different plan shapes must agree
           with fresh scalar sweeps — the DLS buffers are shared *)
        let shapes = [ (2, 3); (7, 9); (1, 2); (5, 4) ] in
        let plans = List.map (fun (m, n) -> Bist.plan ~rows:m ~cols:n) shapes in
        let packs = List.map Bist.pack plans in
        for _round = 1 to 2 do
          List.iteri
            (fun i pd ->
              let plan = List.nth plans i in
              let m, n = List.nth shapes i in
              List.iter
                (fun f ->
                  check "agree" true
                    (Bist.syndrome_packed pd f
                    = Bist_ref.syndrome_scalar plan [ f ]))
                (Fm.universe ~rows:m ~cols:n))
            packs
        done);
  ]

(* ------------------------------------------------------------------ *)
(* Multi-fault behaviour                                               *)
(* ------------------------------------------------------------------ *)

let multi_fault_tests =
  [
    Alcotest.test_case "eval_multi with one fault equals eval" `Quick (fun () ->
        let cfg = Fm.single_term ~rows:3 ~cols:4 1 in
        let vectors =
          List.init 16 (fun m -> Array.init 4 (fun i -> m land (1 lsl i) <> 0))
        in
        List.iter
          (fun f ->
            List.iter
              (fun v ->
                check "agree" (Bist_ref.eval ~fault:f cfg v)
                  (Bist_ref.eval_multi ~faults:[ f ] cfg v))
              vectors)
          (Fm.universe ~rows:3 ~cols:4));
    Alcotest.test_case "empty fault list is fault-free" `Quick (fun () ->
        let cfg = Fm.single_term ~rows:2 ~cols:3 0 in
        let v = [| true; true; false |] in
        check "agree" (Bist_ref.eval cfg v) (Bist_ref.eval_multi ~faults:[] cfg v));
    Alcotest.test_case "pairs of stuck-opens never mask each other" `Quick
      (fun () ->
        (* expected-0 group tests push in one direction only, so two
           same-direction faults cannot cancel *)
        let plan = Bist.plan ~rows:5 ~cols:5 in
        for r1 = 0 to 4 do
          for c1 = 0 to 4 do
            for r2 = 0 to 4 do
              for c2 = 0 to 4 do
                if (r1, c1) < (r2, c2) then
                  check "detected" true
                    (Bist_ref.syndrome_scalar plan
                       [ Fm.Xpoint_stuck_open (r1, c1);
                         Fm.Xpoint_stuck_open (r2, c2) ]
                    <> [])
              done
            done
          done
        done);
    qtest ~count:150 "random double faults are almost always detected"
      QCheck.(pair (int_bound 1000) (int_bound 1000))
      (fun (i, j) ->
        let rows = 6 and cols = 6 in
        let universe = Array.of_list (Fm.universe ~rows ~cols) in
        let plan = Bist.plan ~rows ~cols in
        let f1 = universe.(i mod Array.length universe) in
        let f2 = universe.(j mod Array.length universe) in
        (* ignore contradictory same-line stuck pairs, whose combined
           behaviour is order-defined rather than physical *)
        let contradictory =
          match (f1, f2) with
          | Fm.Row_stuck (a, x), Fm.Row_stuck (b, y) -> a = b && x <> y
          | Fm.Col_stuck (a, x), Fm.Col_stuck (b, y) -> a = b && x <> y
          | _ -> false
        in
        contradictory || Bist_ref.syndrome_scalar plan [ f1; f2 ] <> []);
  ]

(* ------------------------------------------------------------------ *)
(* BISD                                                                *)
(* ------------------------------------------------------------------ *)

let bisd_tests =
  [
    Alcotest.test_case "stuck-open faults are uniquely located" `Quick (fun () ->
        let rows = 4 and cols = 5 in
        let p = Bist.plan ~rows ~cols in
        let universe = Fm.universe ~rows ~cols in
        for r = 0 to rows - 1 do
          for c = 0 to cols - 1 do
            let f = Fm.Xpoint_stuck_open (r, c) in
            let loc = Bisd.locate p ~universe ~syndrome:(Bist.syndrome p f) in
            check "row pinned" true (loc.Bisd.cand_rows = [ r ]);
            check "col pinned" true (loc.Bisd.cand_cols = [ c ])
          done
        done);
    Alcotest.test_case "row code decodes for stuck-open" `Quick (fun () ->
        let rows = 8 and cols = 6 in
        let p = Bist.plan ~rows ~cols in
        for r = 0 to rows - 1 do
          match Bisd.decode_row_code p (Bist.syndrome p (Fm.Xpoint_stuck_open (r, 2))) with
          | Some r' -> check_int "decoded row" r r'
          | None -> Alcotest.failf "no code for row %d" r
        done);
    Alcotest.test_case "every fault is localized to its row or column" `Quick
      (fun () ->
        let rows = 4 and cols = 5 in
        let p = Bist.plan ~rows ~cols in
        let universe = Fm.universe ~rows ~cols in
        List.iter
          (fun f ->
            let loc = Bisd.locate p ~universe ~syndrome:(Bist.syndrome p f) in
            let row_ok =
              match Fm.fault_row f with
              | Some r -> List.mem r loc.Bisd.cand_rows
              | None -> true
            in
            let col_ok =
              match Fm.fault_col f with
              | Some c -> List.mem c loc.Bisd.cand_cols
              | None -> true
            in
            (* bridges touch two lines; accept either endpoint *)
            let bridge_ok =
              match f with
              | Fm.Bridge_rows r ->
                  List.mem r loc.Bisd.cand_rows || List.mem (r + 1) loc.Bisd.cand_rows
              | Fm.Bridge_cols c ->
                  List.mem c loc.Bisd.cand_cols || List.mem (c + 1) loc.Bisd.cand_cols
              | _ -> row_ok && col_ok
            in
            if not bridge_ok then
              Alcotest.failf "bad localization for %s"
                (Format.asprintf "%a" Fm.pp_fault f))
          universe);
    Alcotest.test_case "syndromes distinguish distinct stuck-opens" `Quick
      (fun () ->
        let pd = Bist.pack (Bist.plan ~rows:4 ~cols:4) in
        let syndrome r c =
          Bist.syndrome_packed pd (Fm.Xpoint_stuck_open (r, c))
        in
        for r = 0 to 3 do
          for c = 0 to 3 do
            for r' = 0 to 3 do
              for c' = 0 to 3 do
                if (r, c) < (r', c') then
                  check "distinguishable" true (syndrome r c <> syndrome r' c')
              done
            done
          done
        done);
  ]

(* ------------------------------------------------------------------ *)
(* BISM                                                                *)
(* ------------------------------------------------------------------ *)

let bism_tests =
  [
    Alcotest.test_case "perfect chip maps in one configuration" `Quick (fun () ->
        let chip = Defect.perfect ~rows:16 ~cols:16 in
        List.iter
          (fun scheme ->
            let rng = Rng.create 21 in
            let stats, m =
              Bism.run rng scheme ~chip ~k_rows:8 ~k_cols:8 ~max_configs:10
            in
            check "success" true stats.Bism.success;
            check_int "one config" 1 stats.Bism.configurations;
            check "mapping valid" true
              (match m with
              | Some m -> Bism.mapping_defect_free chip m
              | None -> false))
          [ Bism.Blind; Bism.Greedy; Bism.Hybrid 3 ]);
    Alcotest.test_case "successful mappings are always defect-free" `Quick
      (fun () ->
        let rng = Rng.create 22 in
        for trial = 0 to 30 do
          let chip =
            Defect.generate rng ~rows:24 ~cols:24 (Defect.uniform 0.03)
          in
          List.iter
            (fun scheme ->
              let stats, m =
                Bism.run
                  (Rng.create (1000 + trial))
                  scheme ~chip ~k_rows:10 ~k_cols:10 ~max_configs:400
              in
              match m with
              | Some m ->
                  check "defect-free" true (Bism.mapping_defect_free chip m)
              | None -> check "fail only without mapping" false stats.Bism.success)
            [ Bism.Blind; Bism.Greedy; Bism.Hybrid 5 ]
        done);
    Alcotest.test_case "greedy beats blind at high density" `Quick (fun () ->
        let chip =
          Defect.generate (Rng.create 23) ~rows:32 ~cols:32 (Defect.uniform 0.06)
        in
        let blind_stats, _ =
          Bism.run (Rng.create 24) Bism.Blind ~chip ~k_rows:14 ~k_cols:14
            ~max_configs:300
        in
        let greedy_stats, gm =
          Bism.run (Rng.create 24) Bism.Greedy ~chip ~k_rows:14 ~k_cols:14
            ~max_configs:300
        in
        check "blind fails" false blind_stats.Bism.success;
        check "greedy succeeds" true greedy_stats.Bism.success;
        check "greedy used diagnosis" true (greedy_stats.Bism.diagnoses > 0);
        check "mapping sound" true
          (match gm with
          | Some m -> Bism.mapping_defect_free chip m
          | None -> false));
    Alcotest.test_case "blind is cheap at low density" `Quick (fun () ->
        let chip =
          Defect.generate (Rng.create 25) ~rows:32 ~cols:32 (Defect.uniform 0.005)
        in
        let stats, _ =
          Bism.run (Rng.create 26) Bism.Blind ~chip ~k_rows:12 ~k_cols:12
            ~max_configs:100
        in
        check "succeeds" true stats.Bism.success;
        check "few configurations" true (stats.Bism.configurations <= 10);
        check_int "no diagnosis hardware used" 0 stats.Bism.diagnoses);
    Alcotest.test_case "hybrid switches regimes" `Quick (fun () ->
        (* low density: succeeds within the blind budget, no diagnoses *)
        let low =
          Defect.generate (Rng.create 27) ~rows:32 ~cols:32 (Defect.uniform 0.005)
        in
        let s_low, _ =
          Bism.run (Rng.create 28) (Bism.Hybrid 10) ~chip:low ~k_rows:12
            ~k_cols:12 ~max_configs:300
        in
        check "low: success" true s_low.Bism.success;
        check_int "low: no diagnoses" 0 s_low.Bism.diagnoses;
        (* high density: exceeds the blind budget then recovers greedily *)
        let high =
          Defect.generate (Rng.create 29) ~rows:32 ~cols:32 (Defect.uniform 0.06)
        in
        let s_high, _ =
          Bism.run (Rng.create 30) (Bism.Hybrid 10) ~chip:high ~k_rows:14
            ~k_cols:14 ~max_configs:300
        in
        check "high: success" true s_high.Bism.success;
        check "high: diagnoses used" true (s_high.Bism.diagnoses > 0));
    Alcotest.test_case "oversized requests are rejected" `Quick (fun () ->
        let chip = Defect.perfect ~rows:4 ~cols:4 in
        check "raises" true
          (match
             Bism.run (Rng.create 1) Bism.Blind ~chip ~k_rows:5 ~k_cols:4
               ~max_configs:1
           with
          | exception Invalid_argument _ -> true
          | _ -> false));
    Alcotest.test_case "monte-carlo records are pinned" `Quick (fun () ->
        List.iter
          (fun (scheme, seed, k, d, mapped, configs, diags, per_trial) ->
            let mc, per =
              Bism.monte_carlo (Rng.create seed) scheme ~trials:6 ~n:32
                ~profile:(Defect.uniform d) ~k_rows:k ~k_cols:k
                ~max_configs:1000
            in
            let name = Printf.sprintf "seed %d k=%d d=%g" seed k d in
            check_int (name ^ " mapped") mapped mc.Bism.mc_mapped;
            Alcotest.(check (float 1e-9))
              (name ^ " avg configs") configs mc.Bism.mc_avg_configs;
            Alcotest.(check (float 1e-9))
              (name ^ " avg diagnoses") diags mc.Bism.mc_avg_diagnoses;
            Alcotest.(check string) (name ^ " per trial") per_trial
              (String.concat " "
                 (Array.to_list
                    (Array.map
                       (fun (s : Bism.stats) ->
                         check_int "tests = configs k^2"
                           (s.configurations * k * k) s.test_applications;
                         Printf.sprintf "%c%d/%d"
                           (if s.success then 'm' else 'x')
                           s.configurations s.diagnoses)
                       per))))
          (* computed before the remap loop stopped allocating: each
             trial as (m)apped or (x) failed, configurations/diagnoses *)
          [ (Bism.Greedy, 11, 14, 0.08, 3, 3149. /. 6., 3146. /. 6.,
             "x1000/1000 m65/64 m4/3 x1000/1000 m80/79 x1000/1000");
            (Bism.Hybrid 10, 11, 14, 0.08, 3, 3206. /. 6., 3143. /. 6.,
             "x1000/990 x1000/990 m32/21 m134/123 m40/29 x1000/990");
            (Bism.Blind, 11, 14, 0.08, 0, 1000., 0.,
             "x1000/0 x1000/0 x1000/0 x1000/0 x1000/0 x1000/0");
            (Bism.Greedy, 11, 12, 0.05, 6, 40. /. 6., 34. /. 6.,
             "m4/3 m7/6 m5/4 m6/5 m13/12 m5/4");
            (Bism.Hybrid 10, 11, 12, 0.05, 6, 94. /. 6., 28. /. 6.,
             "m13/2 m13/2 m15/4 m14/3 m14/3 m25/14");
            (Bism.Blind, 11, 12, 0.05, 3, 607., 0.,
             "m103/0 m107/0 m432/0 x1000/0 x1000/0 x1000/0");
            (Bism.Greedy, 12, 14, 0.08, 3, 507.5, 507.,
             "x1000/1000 x1000/1000 m15/14 x1000/1000 m20/19 m10/9");
            (Bism.Hybrid 10, 12, 14, 0.08, 4, 2135. /. 6., 2071. /. 6.,
             "m26/15 m18/7 m17/6 m74/63 x1000/990 x1000/990");
            (Bism.Blind, 12, 14, 0.08, 0, 1000., 0.,
             "x1000/0 x1000/0 x1000/0 x1000/0 x1000/0 x1000/0");
            (Bism.Greedy, 12, 12, 0.05, 6, 38. /. 6., 32. /. 6.,
             "m9/8 m2/1 m11/10 m7/6 m4/3 m5/4");
            (Bism.Hybrid 10, 12, 12, 0.05, 6, 101. /. 6., 35. /. 6.,
             "m20/9 m23/12 m13/2 m16/5 m15/4 m14/3");
            (Bism.Blind, 12, 12, 0.05, 2, 789.5, 0.,
             "x1000/0 x1000/0 m172/0 x1000/0 x1000/0 m565/0") ]);
  ]

(* ------------------------------------------------------------------ *)
(* Defect-unaware flow                                                 *)
(* ------------------------------------------------------------------ *)

let flow_tests =
  [
    Alcotest.test_case "greedy extraction is defect-free" `Quick (fun () ->
        let rng = Rng.create 31 in
        for _ = 1 to 40 do
          let chip = Defect.generate rng ~rows:20 ~cols:20 (Defect.uniform 0.1) in
          let sel = Defect_flow.greedy_max chip in
          check "defect-free" true (Nxc_oracle.Assign_ref.selection_defect_free chip sel);
          check "square" true
            (Array.length sel.Defect_flow.sel_rows
            = Array.length sel.Defect_flow.sel_cols)
        done);
    Alcotest.test_case "perfect chip recovers everything" `Quick (fun () ->
        let chip = Defect.perfect ~rows:10 ~cols:10 in
        check_int "k = n" 10 (Defect_flow.recovered_k (Defect_flow.greedy_max chip)));
    Alcotest.test_case "extract honors k" `Quick (fun () ->
        let rng = Rng.create 32 in
        let chip = Defect.generate rng ~rows:16 ~cols:16 (Defect.uniform 0.05) in
        (match Defect_flow.extract chip ~k:8 with
        | Some sel ->
            check_int "rows" 8 (Array.length sel.Defect_flow.sel_rows);
            check "defect-free" true (Nxc_oracle.Assign_ref.selection_defect_free chip sel)
        | None -> Alcotest.fail "expected an 8x8 extraction at 5% on 16x16");
        check "absurd k refused" true (Defect_flow.extract chip ~k:16 = None));
    Alcotest.test_case "exact is at least as good as greedy" `Quick (fun () ->
        let rng = Rng.create 33 in
        for _ = 1 to 15 do
          let chip = Defect.generate rng ~rows:9 ~cols:9 (Defect.uniform 0.12) in
          let g = Defect_flow.recovered_k (Defect_flow.greedy_max chip) in
          let e_sel = Defect_flow.exact_max chip in
          let e = Defect_flow.recovered_k e_sel in
          check "exact >= greedy" true (e >= g);
          check "exact defect-free" true (Nxc_oracle.Assign_ref.selection_defect_free chip e_sel)
        done);
    qtest ~count:150 "extract = greedy_max truncated to k, for every k"
      QCheck.(
        make
          ~print:(fun (seed, rows, cols, clustered, d) ->
            Printf.sprintf "seed %d %dx%d %s %.3f" seed rows cols
              (if clustered then "clustered" else "uniform")
              d)
          Gen.(
            int_bound 10_000 >>= fun seed ->
            int_range 1 20 >>= fun rows ->
            oneof [ return rows; int_range 1 20 ] >>= fun cols ->
            bool >>= fun clustered ->
            float_bound_inclusive 0.3 >|= fun d -> (seed, rows, cols, clustered, d)))
      (fun (seed, rows, cols, clustered, d) ->
        let profile = if clustered then Defect.clustered d else Defect.uniform d in
        let chip = Defect.generate (Rng.create seed) ~rows ~cols profile in
        let g = Defect_flow.greedy_max chip in
        List.for_all
          (fun k ->
            Defect_flow.extract chip ~k
            =
            if Defect_flow.recovered_k g >= k then
              Some
                { Defect_flow.sel_rows = Array.sub g.Defect_flow.sel_rows 0 k;
                  sel_cols = Array.sub g.Defect_flow.sel_cols 0 k }
            else None)
          (List.init (max rows cols + 2) Fun.id));
    Alcotest.test_case "flow costs: unaware map is O(N) vs O(N^2)" `Quick
      (fun () ->
        let aware = Defect_flow.aware_cost ~n:64 ~chips:1000 ~apps:10 in
        let unaware = Defect_flow.unaware_cost ~n:64 ~k:48 ~chips:1000 ~apps:10 in
        check_int "aware map" (64 * 64) aware.Defect_flow.map_entries_per_chip;
        check_int "unaware map" (2 * 64) unaware.Defect_flow.map_entries_per_chip;
        check "unaware designs once per app" true
          (unaware.Defect_flow.design_runs < aware.Defect_flow.design_runs);
        check "unaware total cheaper" true
          (unaware.Defect_flow.total_steps < aware.Defect_flow.total_steps));
  ]

(* ------------------------------------------------------------------ *)
(* Variation and yield                                                 *)
(* ------------------------------------------------------------------ *)

let variation_tests =
  [
    Alcotest.test_case "lognormal median near one" `Quick (fun () ->
        let rng = Rng.create 41 in
        let d = Variation.sample rng ~rows:60 ~cols:60 ~sigma:0.3 in
        let all = Array.to_list d |> List.concat_map Array.to_list in
        let sorted = List.sort compare all in
        let median = List.nth sorted (List.length sorted / 2) in
        check "median" true (median > 0.9 && median < 1.1);
        check "all positive" true (List.for_all (fun x -> x > 0.0) all));
    Alcotest.test_case "config delay adds chains" `Quick (fun () ->
        let d = [| [| 1.0; 2.0 |]; [| 10.0; 0.5 |] |] in
        let cfg = Fm.single_term ~rows:2 ~cols:2 0 in
        check "row 0 chain" true (Variation.config_delay d cfg = 3.0);
        let cfg1 = Fm.single_term ~rows:2 ~cols:2 1 in
        check "row 1 chain" true (Variation.config_delay d cfg1 = 10.5));
    Alcotest.test_case "monte carlo ordering" `Quick (fun () ->
        let rng = Rng.create 42 in
        let cfg = Fm.single_term ~rows:4 ~cols:6 2 in
        let s = Variation.monte_carlo rng ~trials:500 ~sigma:0.4 cfg in
        check "mean <= p95" true (s.Variation.mean <= s.Variation.p95);
        check "p95 <= worst" true (s.Variation.p95 <= s.Variation.worst);
        check "spread exists" true (s.Variation.std > 0.0));
    Alcotest.test_case "higher sigma spreads more" `Quick (fun () ->
        let cfg = Fm.single_term ~rows:4 ~cols:6 1 in
        let s1 =
          Variation.monte_carlo (Rng.create 43) ~trials:800 ~sigma:0.1 cfg
        in
        let s2 =
          Variation.monte_carlo (Rng.create 43) ~trials:800 ~sigma:0.6 cfg
        in
        check "std grows" true (s2.Variation.std > s1.Variation.std));
    Alcotest.test_case "variation-aware choice is no worse" `Quick (fun () ->
        let rng = Rng.create 44 in
        let chip = Defect.generate rng ~rows:16 ~cols:16 (Defect.uniform 0.04) in
        let d = Variation.sample rng ~rows:16 ~cols:16 ~sigma:0.5 in
        (* several candidate selections from different greedy seeds:
           derive alternatives by extracting from row/col subsets *)
        let base = Defect_flow.greedy_max chip in
        let alternatives =
          List.filter_map
            (fun k -> Defect_flow.extract chip ~k)
            [ Defect_flow.recovered_k base; Defect_flow.recovered_k base - 1;
              Defect_flow.recovered_k base - 2 ]
        in
        match alternatives with
        | [] -> Alcotest.fail "no candidates"
        | cands ->
            let _, best_delay = Variation.pick_fastest d cands in
            List.iter
              (fun s ->
                check "best is min" true
                  (best_delay <= Variation.selection_delay d s))
              cands);
  ]

let yield_tests =
  [
    Alcotest.test_case "yield is 1 without defects" `Quick (fun () ->
        let r =
          Yield_model.recovery_rate (Rng.create 51) ~trials:20 ~n:12 ~k:12
            ~profile:(Defect.uniform 0.0)
        in
        check "perfect" true (r = 1.0));
    Alcotest.test_case "yield falls with k" `Quick (fun () ->
        let rate k =
          Yield_model.recovery_rate (Rng.create 52) ~trials:60 ~n:16 ~k
            ~profile:(Defect.uniform 0.08)
        in
        check "k=4 easy" true (rate 4 >= 0.9);
        check "monotone-ish" true (rate 4 >= rate 10);
        check "k=16 impossible at 8%" true (rate 16 <= 0.1));
    Alcotest.test_case "expected max k falls with density" `Quick (fun () ->
        let ek d =
          Yield_model.expected_max_k (Rng.create 53) ~trials:40 ~n:16
            ~profile:(Defect.uniform d)
        in
        check "ordering" true (ek 0.02 > ek 0.10 && ek 0.10 > ek 0.25));
    Alcotest.test_case "guaranteed k is sound" `Quick (fun () ->
        let profile = Defect.uniform 0.06 in
        let k =
          Yield_model.guaranteed_k (Rng.create 54) ~trials:40 ~n:16 ~profile
            ~min_yield:0.9
        in
        check "nontrivial" true (k >= 1 && k < 16);
        let r =
          Yield_model.recovery_rate (Rng.create 55) ~trials:40 ~n:16 ~k ~profile
        in
        check "achieves the yield (resampled)" true (r >= 0.75));
    Alcotest.test_case "a threshold equal to the rate is met" `Quick (fun () ->
        let profile = Defect.uniform 0.02 in
        let rate =
          Yield_model.recovery_rate (Rng.create 56) ~trials:20 ~n:10 ~k:10
            ~profile
        in
        check "rate strictly between 0 and 1" true (rate > 0.0 && rate < 1.0);
        check_int "first step meets it" 10
          (Yield_model.guaranteed_k (Rng.create 56) ~trials:20 ~n:10 ~profile
             ~min_yield:rate));
    (* one descent for several thresholds draws what one descent per
       threshold draws, sequentially and on a 2-slot pool; the
       per-threshold answers are also checked against a plain descent
       over [recovery_rate] *)
    qtest ~count:40 "guaranteed_ks = guaranteed_k per threshold"
      QCheck.(
        make
          ~print:(fun (seed, n, trials, d, ys) ->
            Printf.sprintf "seed %d n=%d trials=%d d=%.3f [%s]" seed n trials d
              (String.concat "; " (List.map string_of_float ys)))
          Gen.(
            int_bound 10_000 >>= fun seed ->
            int_range 1 16 >>= fun n ->
            int_range 1 8 >>= fun trials ->
            float_bound_inclusive 0.2 >>= fun d ->
            list_size (int_range 0 6)
              (oneof
                 [ return 0.0; return 1.5; oneofl [ 0.5; 0.9 ];
                   float_bound_inclusive 1.0 ])
            >|= fun ys -> (seed, n, trials, d, ys)))
      (fun (seed, n, trials, d, ys) ->
        let profile = Defect.uniform d in
        let each =
          List.map
            (fun min_yield ->
              Yield_model.guaranteed_k (Rng.create seed) ~trials ~n ~profile
                ~min_yield)
            ys
        in
        let descent min_yield =
          let rng = Rng.create seed in
          let rec go k =
            if k < 1 then 0
            else if
              Yield_model.recovery_rate rng ~trials ~n ~k ~profile >= min_yield
            then k
            else go (k - 1)
          in
          go n
        in
        let ks ?pool () =
          Yield_model.guaranteed_ks ?pool (Rng.create seed) ~trials ~n ~profile
            ~min_yields:ys
        in
        each = List.map descent ys
        && ks () = each
        && Nxc_par.Pool.with_jobs 2 (fun pool -> ks ?pool ()) = each);
    Alcotest.test_case "yield job results are pinned" `Quick (fun () ->
        (* computed while the engine still ran one descent per
           threshold *)
        List.iter
          (fun (seed, result) ->
            let line =
              Printf.sprintf
                {|{"kind":"yield","n":32,"density":0.05,"seed":%d,"trials":30}|}
                seed
            in
            Alcotest.(check string)
              (Printf.sprintf "seed %d" seed)
              (Printf.sprintf
                 {|{"id":null,"kind":"yield","status":"ok","exit":0,"result":%s}|}
                 result)
              (Nxc_obs.Json.to_string
                 (Nxc_service.Engine.run_line line).Nxc_service.Engine.envelope))
          [ (11,
             {|{"mean_max_k":19.7666666667,"k_at_50":20,"k_at_90":18,"k_at_99":17}|});
            (12,
             {|{"mean_max_k":20.1666666667,"k_at_50":20,"k_at_90":18,"k_at_99":18}|})
          ]);
  ]

let () =
  Alcotest.run "reliability"
    [
      ("rng", rng_tests);
      ("defect", defect_tests);
      ("fault_model", fault_model_tests);
      ("bist", bist_tests);
      ("bist_packed", packed_tests);
      ("multi_fault", multi_fault_tests);
      ("bisd", bisd_tests);
      ("bism", bism_tests);
      ("defect_flow", flow_tests);
      ("variation", variation_tests);
      ("yield", yield_tests);
    ]
