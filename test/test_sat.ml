(* Differential and unit tests for the Nxc_sat subsystem.

   The CDCL solver is pitted against brute-force enumeration on random
   CNFs (SAT/UNSAT agreement, model soundness), the cardinality
   encodings against popcount semantics, and the exact backends
   ([Sat_cover], [Sat_assign]) against exhaustive search and against
   the heuristics they replace. *)

module S = Nxc_sat.Solver
module Card = Nxc_sat.Card
module G = Nxc_guard
module L = Nxc_logic
module R = Nxc_reliability

(* ------------------------------------------------------------------ *)
(* brute-force CNF reference                                           *)
(* ------------------------------------------------------------------ *)

(* a CNF is a clause list; a clause is a DIMACS literal list over
   variables 1..n *)
let eval_clause asg c =
  List.exists (fun l -> if l > 0 then asg.(l - 1) else not asg.(-l - 1)) c

let eval_cnf asg cnf = List.for_all (eval_clause asg) cnf

let brute_force_sat n cnf =
  let asg = Array.make n false in
  let rec any m =
    if m >= 1 lsl n then false
    else begin
      for v = 0 to n - 1 do
        asg.(v) <- (m lsr v) land 1 = 1
      done;
      eval_cnf asg cnf || any (m + 1)
    end
  in
  any 0

let solver_of_cnf ?(seed = 0) n cnf =
  let s = S.create ~seed () in
  for _ = 1 to n do
    ignore (S.new_var s)
  done;
  List.iter (S.add_clause s) cnf;
  s

let model_of s n = Array.init n (fun v -> S.value s (v + 1))

(* random CNF generator: clause count scaled to stay near the
   phase-transition region where both outcomes are common *)
let gen_cnf lo_vars hi_vars =
  QCheck.Gen.(
    int_range lo_vars hi_vars >>= fun n ->
    int_range 0 (4 * n) >>= fun m ->
    let gen_lit =
      int_range 1 n >>= fun v ->
      map (fun b -> if b then v else -v) bool
    in
    list_size (return m) (list_size (int_range 1 3) gen_lit) >>= fun cnf ->
    return (n, cnf))

let print_cnf (n, cnf) =
  Printf.sprintf "n=%d cnf=[%s]" n
    (String.concat "; "
       (List.map
          (fun c -> String.concat " " (List.map string_of_int c))
          cnf))

let arb_cnf lo hi = QCheck.make ~print:print_cnf (gen_cnf lo hi)

let qtest ?(count = 200) name arb prop =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 0x5a7; String.length name |])
    (QCheck.Test.make ~count ~name arb prop)

(* ------------------------------------------------------------------ *)
(* solver core                                                         *)
(* ------------------------------------------------------------------ *)

let differential (n, cnf) =
  let s = solver_of_cnf n cnf in
  match S.solve s with
  | S.Unknown -> QCheck.Test.fail_report "unlimited budget returned Unknown"
  | S.Sat ->
      if not (brute_force_sat n cnf) then
        QCheck.Test.fail_report "solver SAT, brute force UNSAT";
      (* model soundness *)
      eval_cnf (model_of s n) cnf
  | S.Unsat ->
      if brute_force_sat n cnf then
        QCheck.Test.fail_report "solver UNSAT, brute force SAT";
      true

let assumption_differential (n, cnf) =
  (* solving under assumptions must agree with solving the CNF plus
     unit clauses, and must not disturb later assumption-free solves *)
  let assumps =
    List.filteri (fun i _ -> i mod 3 = 0)
      (List.sort_uniq compare (List.concat cnf))
  in
  let assumps =
    (* drop contradictory pairs to keep the reference meaningful *)
    List.filter (fun l -> not (List.mem (-l) assumps)) assumps
  in
  let s = solver_of_cnf n cnf in
  let under = S.solve ~assumptions:assumps s in
  let reference = brute_force_sat n (List.map (fun l -> [ l ]) assumps @ cnf) in
  (match under with
  | S.Unknown -> QCheck.Test.fail_report "Unknown without budget"
  | S.Sat ->
      if not reference then
        QCheck.Test.fail_report "assumed SAT, reference UNSAT";
      if not (eval_cnf (model_of s n) cnf) then
        QCheck.Test.fail_report "assumed model violates CNF";
      if
        not
          (List.for_all
             (fun l ->
               if l > 0 then S.value s l else not (S.value s (-l)))
             assumps)
      then QCheck.Test.fail_report "assumed model violates assumptions"
  | S.Unsat ->
      if reference then QCheck.Test.fail_report "assumed UNSAT, reference SAT");
  (* assumptions are per-call: a plain solve afterwards answers for the
     unconstrained CNF again *)
  match S.solve s with
  | S.Sat -> brute_force_sat n cnf && eval_cnf (model_of s n) cnf
  | S.Unsat -> not (brute_force_sat n cnf)
  | S.Unknown -> QCheck.Test.fail_report "Unknown without budget"

let test_determinism () =
  (* same seed, same call sequence => bit-identical model *)
  let cnf =
    [ [ 1; 2; -3 ]; [ -1; 4 ]; [ 3; -4; 5 ]; [ -2; -5 ]; [ 2; 3; 4 ];
      [ -1; -3; -5 ]; [ 1; 5 ] ]
  in
  let run () =
    let s = solver_of_cnf ~seed:42 5 cnf in
    match S.solve s with
    | S.Sat -> model_of s 5
    | _ -> Alcotest.fail "expected SAT"
  in
  Alcotest.(check (array bool)) "identical models" (run ()) (run ())

let test_incremental_learning () =
  (* clauses may be added between solves; learned clauses persist *)
  let s = S.create () in
  let v = Array.init 6 (fun _ -> S.new_var s) in
  S.add_clause s [ v.(0); v.(1) ];
  Alcotest.(check bool) "sat 1" true (S.solve s = S.Sat);
  S.add_clause s [ -v.(0) ];
  S.add_clause s [ -v.(1); v.(2) ];
  Alcotest.(check bool) "sat 2" true (S.solve s = S.Sat);
  Alcotest.(check bool) "unit propagated" true (S.value s v.(1));
  Alcotest.(check bool) "chain propagated" true (S.value s v.(2));
  S.add_clause s [ -v.(2) ];
  Alcotest.(check bool) "unsat after tightening" true (S.solve s = S.Unsat);
  (* a level-0 conflict is remembered: the next solve answers at once *)
  Alcotest.(check bool) "ok reflects level-0 conflict" true (S.solve s = S.Unsat)

(* pigeonhole: holes+1 pigeons into [holes] holes, UNSAT and hard
   enough to burn conflicts (and restarts) *)
let php_cnf s holes =
  let p =
    Array.init (holes + 1) (fun _ ->
        Array.init holes (fun _ -> S.new_var s))
  in
  for i = 0 to holes do
    S.add_clause s (Array.to_list p.(i))
  done;
  for h = 0 to holes - 1 do
    for i = 0 to holes do
      for j = i + 1 to holes do
        S.add_clause s [ -p.(i).(h); -p.(j).(h) ]
      done
    done
  done

let test_budget_unknown () =
  (* a tiny budget must yield Unknown, never a wrong answer, and the
     solver must stay usable with a fresh budget *)
  let s = S.create () in
  php_cnf s 7;
  let tight = G.Budget.create ~steps:50 () in
  Alcotest.(check bool) "tiny budget -> Unknown" true
    (G.Budget.with_current tight (fun () -> S.solve s) = S.Unknown);
  Alcotest.(check bool) "fresh budget -> Unsat" true (S.solve s = S.Unsat)

let test_learnt_db_gauge () =
  (* the learnt-database size is sampled into the [sat.learnt_db_size]
     gauge at every restart — provenance for a future deletion policy *)
  let counter name =
    Nxc_obs.Metrics.counter_value (Nxc_obs.Metrics.counter name)
  in
  let restarts0 = counter "sat.restarts"
  and learned0 = counter "sat.learned_clauses" in
  let s = S.create () in
  php_cnf s 7;
  Alcotest.(check bool) "php unsat" true (S.solve s = S.Unsat);
  Alcotest.(check bool) "solve restarted" true (counter "sat.restarts" > restarts0);
  let v =
    Nxc_obs.Metrics.gauge_value (Nxc_obs.Metrics.gauge "sat.learnt_db_size")
  in
  Alcotest.(check bool) "gauge sampled at a restart" true (v > 0.0);
  Alcotest.(check bool) "gauge bounded by retained learnt clauses" true
    (v <= float_of_int (counter "sat.learned_clauses" - learned0))

(* ------------------------------------------------------------------ *)
(* cardinality                                                         *)
(* ------------------------------------------------------------------ *)

let card_at_most (n, cnf) =
  (* re-use random CNFs as noise; the property under test is the
     cardinality bound on the first [n] variables *)
  let k = n / 2 in
  let s = solver_of_cnf n cnf in
  let lits = List.init n (fun v -> v + 1) in
  Card.at_most s lits ~k;
  match S.solve s with
  | S.Unknown -> QCheck.Test.fail_report "Unknown without budget"
  | S.Sat ->
      let m = model_of s n in
      let pop = Array.fold_left (fun a b -> if b then a + 1 else a) 0 m in
      eval_cnf m cnf && pop <= k
  | S.Unsat ->
      (* reference: no assignment satisfies cnf with <= k true vars *)
      let asg = Array.make n false in
      let rec any m =
        if m >= 1 lsl n then false
        else begin
          for v = 0 to n - 1 do
            asg.(v) <- (m lsr v) land 1 = 1
          done;
          let pop =
            Array.fold_left (fun a b -> if b then a + 1 else a) 0 asg
          in
          (pop <= k && eval_cnf asg cnf) || any (m + 1)
        end
      in
      not (any 0)

let test_counter_outputs () =
  (* force an exact input popcount with unit clauses; every output up
     to the count must come out true (one-sided encoding) *)
  for n = 1 to 6 do
    for pattern = 0 to (1 lsl n) - 1 do
      let s = S.create () in
      let lits = List.init n (fun _ -> S.new_var s) in
      let o = Card.counter s lits ~max:n in
      List.iteri
        (fun i l ->
          S.add_clause s [ (if (pattern lsr i) land 1 = 1 then l else -l) ])
        lits;
      (match S.solve s with
      | S.Sat -> ()
      | _ -> Alcotest.fail "counter circuit must stay satisfiable");
      let pop =
        List.fold_left
          (fun a i -> a + ((pattern lsr i) land 1))
          0
          (List.init n Fun.id)
      in
      for j = 1 to pop do
        if not (S.value s o.(j - 1)) then
          Alcotest.failf "n=%d pattern=%d: output %d false below popcount" n
            pattern j
      done
    done
  done

let test_at_least_at_most () =
  (* at_least k /\ at_most k pins the popcount exactly *)
  let n = 7 in
  for k = 0 to n do
    let s = S.create () in
    let lits = List.init n (fun _ -> S.new_var s) in
    Card.at_least s lits ~k;
    Card.at_most s lits ~k;
    (match S.solve s with
    | S.Sat -> ()
    | _ -> Alcotest.failf "k=%d: expected SAT" k);
    let pop =
      List.fold_left (fun a l -> if S.value s l then a + 1 else a) 0 lits
    in
    Alcotest.(check int) (Printf.sprintf "popcount pinned at %d" k) k pop;
    (* and k+1 against at_most k is a contradiction *)
    if k < n then begin
      Card.at_least s lits ~k:(k + 1);
      Alcotest.(check bool)
        (Printf.sprintf "k=%d over-constrained" k)
        true
        (S.solve s = S.Unsat)
    end
  done

(* ------------------------------------------------------------------ *)
(* Sat_cover                                                           *)
(* ------------------------------------------------------------------ *)

module SC = L.Sat_cover

let brute_min_cover ~num_sets ~covered_by =
  (* smallest subset of sets covering every element; None if impossible *)
  let best = ref None in
  for mask = 0 to (1 lsl num_sets) - 1 do
    let covers =
      Array.for_all
        (fun who -> List.exists (fun i -> (mask lsr i) land 1 = 1) who)
        covered_by
    in
    if covers then begin
      let size =
        List.fold_left
          (fun a i -> a + ((mask lsr i) land 1))
          0
          (List.init num_sets Fun.id)
      in
      match !best with
      | Some b when b <= size -> ()
      | _ -> best := Some size
    end
  done;
  !best

let gen_cover_instance =
  QCheck.Gen.(
    int_range 1 8 >>= fun num_sets ->
    int_range 0 10 >>= fun num_elems ->
    list_size (return num_elems)
      (list_size (int_range 0 num_sets) (int_range 0 (num_sets - 1)))
    >>= fun covered_by -> return (num_sets, Array.of_list (List.map (List.sort_uniq compare) covered_by)))

let print_cover_instance (num_sets, covered_by) =
  Printf.sprintf "sets=%d covered_by=[%s]" num_sets
    (String.concat "; "
       (Array.to_list
          (Array.map
             (fun l -> String.concat "," (List.map string_of_int l))
             covered_by)))

let arb_cover_instance =
  QCheck.make ~print:print_cover_instance gen_cover_instance

let sat_cover_differential (num_sets, covered_by) =
  let bound = List.length (SC.independent_set covered_by) in
  match SC.min_cover ~num_sets ~covered_by ~bound () with
  | Ok { SC.chosen; optimal } ->
      if not optimal then
        QCheck.Test.fail_report "non-optimal without budget";
      (* certificate covers every element *)
      Array.iter
        (fun who ->
          if not (List.exists (fun i -> List.mem i chosen) who) then
            QCheck.Test.fail_report "certificate misses an element")
        covered_by;
      (match brute_min_cover ~num_sets ~covered_by with
      | None -> QCheck.Test.fail_report "SAT cover where brute force has none"
      | Some b ->
          if List.length chosen <> b then
            QCheck.Test.fail_report
              (Printf.sprintf "size %d, brute force %d" (List.length chosen) b));
      true
  | Error (`Unsat _) ->
      brute_min_cover ~num_sets ~covered_by = None
      || QCheck.Test.fail_report "SAT Unsat where brute force covers"
  | Error e ->
      QCheck.Test.fail_report (G.Error.to_string (e :> G.Error.t))

(* exhaustive comparison against Qm's branch and bound on whole truth
   tables: same optimal size, both covers function-equivalent *)
let backends_agree_on n value =
  let tt = L.Truth_table.of_fun_int n (fun m -> (value lsr m) land 1 = 1) in
  let on = L.Truth_table.minterms tt in
  let minimize backend =
    match L.Qm.minimize_result ~cover_backend:backend ~n on with
    | Ok r -> r
    | Error e -> Alcotest.failf "unbudgeted minimize: %s" (Nxc_guard.Error.to_string e)
  in
  let c_bnb, s_bnb = minimize L.Qm.Bnb in
  let c_sat, s_sat = minimize L.Qm.Sat in
  if not (s_bnb.L.Qm.exact && s_sat.L.Qm.exact) then
    Alcotest.failf "n=%d value=%d: inexact without budget" n value;
  if L.Cover.num_cubes c_bnb <> L.Cover.num_cubes c_sat then
    Alcotest.failf "n=%d value=%d: bnb %d cubes, sat %d cubes" n value
      (L.Cover.num_cubes c_bnb) (L.Cover.num_cubes c_sat);
  if not (L.Cover.equivalent c_bnb c_sat) then
    Alcotest.failf "n=%d value=%d: backends disagree semantically" n value;
  if not (L.Truth_table.equal (L.Truth_table.of_cover c_sat) tt) then
    Alcotest.failf "n=%d value=%d: sat cover is not the function" n value

let test_backends_exhaustive () =
  for n = 0 to 3 do
    for value = 0 to (1 lsl (1 lsl n)) - 1 do
      backends_agree_on n value
    done
  done

let test_backends_sampled_n4 () =
  (* 2^16 n=4 functions is too many to sweep in a unit test; stride
     through a deterministic sample *)
  let v = ref 0 in
  while !v < 1 lsl 16 do
    backends_agree_on 4 !v;
    v := !v + 257
  done

let test_cover_uncoverable () =
  match SC.min_cover ~num_sets:3 ~covered_by:[| [ 0; 1 ]; [] |] ~bound:2 () with
  | Error (`Unsat _) -> ()
  | _ -> Alcotest.fail "expected Unsat on an uncoverable element"

let test_cover_budget () =
  (* exhausted before the first certificate: typed budget error *)
  let covered_by = Array.init 10 (fun e -> [ e mod 7; (e + 3) mod 7 ]) in
  let dead = G.Budget.create ~steps:0 () in
  (match
     G.Budget.with_current dead (fun () ->
         SC.min_cover ~num_sets:7 ~covered_by ~bound:1 ())
   with
  | Error (`Budget_exhausted _) -> ()
  | Ok _ -> Alcotest.fail "dead budget produced a certificate"
  | Error e -> Alcotest.failf "unexpected %s" (G.Error.to_string (e :> G.Error.t)))

(* ------------------------------------------------------------------ *)
(* Sat_assign                                                          *)
(* ------------------------------------------------------------------ *)

module SA = R.Sat_assign

let brute_mappable chip ~k =
  (* enumerate every k-subset pair of rows/cols *)
  let n = R.Defect.rows chip in
  let rec subsets k from =
    if k = 0 then [ [] ]
    else if from >= n then []
    else
      List.map (fun s -> from :: s) (subsets (k - 1) (from + 1))
      @ subsets k (from + 1)
  in
  let sets = subsets k 0 in
  List.exists
    (fun rs ->
      List.exists
        (fun cs ->
          List.for_all
            (fun r ->
              List.for_all (fun c -> not (R.Defect.is_defective chip r c)) cs)
            rs)
        sets)
    sets

let gen_chip =
  QCheck.Gen.(
    int_range 0 1000000 >>= fun seed ->
    float_range 0.05 0.5 >>= fun density ->
    return (seed, density))

let arb_chip =
  QCheck.make
    ~print:(fun (s, d) -> Printf.sprintf "seed=%d density=%.3f" s d)
    gen_chip

(* a Matching certificate must pass the oracle's independent check *)
let certificate_ok chip ~spares = function
  | SA.Matching m -> Nxc_oracle.Assign_ref.matching_certifies chip ~spares m
  | SA.Refuted -> true

let sat_assign_differential ~n ~k (seed, density) =
  let rng = R.Rng.create seed in
  let chip =
    R.Defect.generate rng ~rows:n ~cols:n (R.Defect.uniform density)
  in
  match SA.decide chip ~k_rows:k ~k_cols:k with
  | Ok (SA.Mappable m) ->
      if not (R.Bism.mapping_defect_free chip m) then
        QCheck.Test.fail_report "witness not defect-free";
      brute_mappable chip ~k
      || QCheck.Test.fail_report "SAT mappable, brute force disagrees"
  | Ok (SA.Unmappable cert) ->
      if not (certificate_ok chip ~spares:(2 * (n - k)) cert) then
        QCheck.Test.fail_report "matching certificate rejected by the oracle";
      (not (brute_mappable chip ~k))
      || QCheck.Test.fail_report "SAT unmappable, brute force finds a mapping"
  | Ok (SA.Degraded _) -> QCheck.Test.fail_report "degraded without budget"
  | Error e -> QCheck.Test.fail_report (G.Error.to_string (e :> G.Error.t))

(* Bira's exact search answers the same question with a different
   algorithm; wherever it does not degrade, the verdicts must agree *)
let arb_bira_chip =
  QCheck.make
    ~print:(fun (s, d, n, sp) ->
      Printf.sprintf "seed=%d density=%.3f n=%d spares=%d" s d n sp)
    QCheck.Gen.(
      quad (int_range 0 1000000) (float_range 0.02 0.2) (int_range 12 16)
        (int_range 1 3))

let bira_degrades =
  Nxc_obs.Metrics.counter "guard.degrade.bira_exact_to_greedy"

let sat_assign_vs_bira (seed, density, n, spares) =
  let chip =
    R.Defect.generate (R.Rng.create seed) ~rows:n ~cols:n
      (R.Defect.uniform density)
  in
  let k = n - spares in
  let before = Nxc_obs.Metrics.counter_value bira_degrades in
  let bira =
    R.Bira.analyze ~mode:R.Bira.Exact chip ~spare_rows:spares
      ~spare_cols:spares
  in
  let degraded = Nxc_obs.Metrics.counter_value bira_degrades > before in
  match (SA.decide chip ~k_rows:k ~k_cols:k, bira) with
  | _, Ok { R.Bira.degraded = true; _ } -> true
  | _, Error _ when degraded -> true
  | Ok (SA.Mappable _), Ok _ -> true
  | Ok (SA.Unmappable cert), Error (`Unsat _) ->
      certificate_ok chip ~spares:(2 * spares) cert
      || QCheck.Test.fail_report "matching certificate rejected by the oracle"
  | Ok _, Error e ->
      QCheck.Test.fail_reportf "verdict disagrees with Bira: %s"
        (G.Error.to_string (e :> G.Error.t))
  | Ok (SA.Unmappable _), Ok _ ->
      QCheck.Test.fail_report "unmappable, but Bira found a repair"
  | Ok (SA.Degraded _), _ -> QCheck.Test.fail_report "degraded without budget"
  | Error e, _ -> QCheck.Test.fail_report (G.Error.to_string (e :> G.Error.t))

let test_assign_edges () =
  let perfect = R.Defect.perfect ~rows:4 ~cols:4 in
  (match SA.decide perfect ~k_rows:4 ~k_cols:4 with
  | Ok (SA.Mappable _) -> ()
  | _ -> Alcotest.fail "perfect chip must be mappable");
  let dead_chip =
    let c = ref perfect in
    for r = 0 to 3 do
      for col = 0 to 3 do
        c := R.Defect.with_defect !c r col R.Defect.Stuck_open
      done
    done;
    !c
  in
  (match SA.decide dead_chip ~k_rows:1 ~k_cols:1 with
  | Ok (SA.Unmappable cert) ->
      Alcotest.(check bool) "certificate checks" true
        (certificate_ok dead_chip ~spares:6 cert)
  | _ -> Alcotest.fail "fully defective chip must be unmappable");
  (match SA.decide perfect ~k_rows:5 ~k_cols:1 with
  | Error (`Invalid_input _) -> ()
  | _ -> Alcotest.fail "oversized geometry must be Invalid_input");
  match SA.decide perfect ~k_rows:0 ~k_cols:1 with
  | Error (`Invalid_input _) -> ()
  | _ -> Alcotest.fail "empty geometry must be Invalid_input"

(* seed 11 of this geometry: greedy allocation dead-ends, yet a repair
   (and so a mapping) exists — the dead end must not pass for a proof *)
let test_greedy_dead_end_not_a_proof () =
  let chip =
    R.Defect.generate (R.Rng.create 11) ~rows:16 ~cols:16
      (R.Defect.uniform 0.2)
  in
  let contains s sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
    in
    go 0
  in
  (match R.Bira.analyze ~mode:R.Bira.Greedy chip ~spare_rows:8 ~spare_cols:8 with
  | Error (`Unsat why) ->
      Alcotest.(check bool) "reported as a heuristic miss" true
        (contains why "heuristic miss")
  | _ -> Alcotest.fail "greedy was expected to dead-end on this chip");
  (match R.Bira.analyze ~mode:R.Bira.Exact chip ~spare_rows:8 ~spare_cols:8 with
  | Ok sol -> Alcotest.(check bool) "exact, not degraded" false sol.R.Bira.degraded
  | Error e -> Alcotest.failf "exact Bira: %s" (G.Error.to_string (e :> G.Error.t)));
  match SA.decide chip ~k_rows:8 ~k_cols:8 with
  | Ok (SA.Mappable m) ->
      Alcotest.(check bool) "witness defect-free" true
        (R.Bism.mapping_defect_free chip m)
  | _ -> Alcotest.fail "decide must map the chip greedy could not repair"

let hard_chip () =
  (* a dense-but-mappable 12x12 instance that burns enough conflicts to
     trip a small budget *)
  let rng = R.Rng.create 7 in
  R.Defect.generate rng ~rows:12 ~cols:12 (R.Defect.uniform 0.3)

let test_assign_budget_fail () =
  let chip = hard_chip () in
  let b = G.Budget.create ~policy:G.Budget.Fail ~steps:3 () in
  match G.Budget.with_current b (fun () -> SA.decide chip ~k_rows:6 ~k_cols:6)
  with
  | Error (`Budget_exhausted _) -> ()
  | Ok _ -> Alcotest.fail "tiny Fail budget must not produce a verdict"
  | Error e -> Alcotest.failf "unexpected %s" (G.Error.to_string (e :> G.Error.t))

let test_assign_budget_degrade () =
  let chip = hard_chip () in
  let counter =
    Nxc_obs.Metrics.counter "guard.degrade.sat_to_greedy"
  in
  let before = Nxc_obs.Metrics.counter_value counter in
  let b = G.Budget.create ~policy:G.Budget.Degrade ~steps:3 () in
  match G.Budget.with_current b (fun () -> SA.decide chip ~k_rows:6 ~k_cols:6)
  with
  | Ok (SA.Degraded m) ->
      Alcotest.(check bool)
        "degrade counted" true
        (Nxc_obs.Metrics.counter_value counter > before);
      (* when the fallback does find a mapping it must be valid *)
      Option.iter
        (fun m ->
          Alcotest.(check bool) "fallback witness valid" true
            (R.Bism.mapping_defect_free chip m))
        m
  | _ -> Alcotest.fail "tiny Degrade budget must yield Degraded"

let test_monte_carlo_pool_independent () =
  let run pool =
    let rng = R.Rng.create 99 in
    SA.monte_carlo ?pool rng ~trials:16 ~n:8
      ~profile:(R.Defect.uniform 0.2) ~k_rows:4 ~k_cols:4
  in
  let seq = run None in
  let pool = Nxc_par.Pool.create ~workers:3 () in
  let par = run (Some pool) in
  Nxc_par.Pool.shutdown pool;
  Alcotest.(check int) "mapped identical" seq.SA.sa_mapped par.SA.sa_mapped;
  Alcotest.(check int) "unmappable identical" seq.SA.sa_unmappable
    par.SA.sa_unmappable;
  Alcotest.(check bool) "some trials decided" true
    (seq.SA.sa_mapped + seq.SA.sa_unmappable > 0)

let () =
  Alcotest.run "sat"
    [ ( "solver",
        [ qtest ~count:400 "differential vs brute force (<=10 vars)"
            (arb_cnf 1 10) differential;
          qtest ~count:40 "differential vs brute force (11-16 vars)"
            (arb_cnf 11 16) differential;
          qtest ~count:200 "assumptions vs unit clauses" (arb_cnf 1 9)
            assumption_differential;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "incremental learning" `Quick
            test_incremental_learning;
          Alcotest.test_case "budget -> Unknown, never wrong" `Quick
            test_budget_unknown;
          Alcotest.test_case "learnt-db gauge at restarts" `Quick
            test_learnt_db_gauge ] );
      ( "card",
        [ qtest ~count:150 "at_most bound holds" (arb_cnf 2 8) card_at_most;
          Alcotest.test_case "counter one-sided outputs" `Quick
            test_counter_outputs;
          Alcotest.test_case "at_least/at_most pin popcount" `Quick
            test_at_least_at_most ] );
      ( "sat_cover",
        [ qtest ~count:300 "min cover vs brute force" arb_cover_instance
            sat_cover_differential;
          Alcotest.test_case "backends agree (exhaustive n<=3)" `Quick
            test_backends_exhaustive;
          Alcotest.test_case "backends agree (sampled n=4)" `Slow
            test_backends_sampled_n4;
          Alcotest.test_case "uncoverable element -> Unsat" `Quick
            test_cover_uncoverable;
          Alcotest.test_case "dead budget -> typed error" `Quick
            test_cover_budget ] );
      ( "sat_assign",
        [ qtest ~count:150 "decide vs brute force (6x6, k=3)" arb_chip
            (sat_assign_differential ~n:6 ~k:3);
          qtest ~count:60 "decide vs brute force (8x8, k=4)" arb_chip
            (sat_assign_differential ~n:8 ~k:4);
          qtest ~count:100 "decide agrees with exact Bira (12-16, few spares)"
            arb_bira_chip sat_assign_vs_bira;
          Alcotest.test_case "edge geometries" `Quick test_assign_edges;
          Alcotest.test_case "greedy dead end is not a proof" `Quick
            test_greedy_dead_end_not_a_proof;
          Alcotest.test_case "budget Fail -> typed error" `Quick
            test_assign_budget_fail;
          Alcotest.test_case "budget Degrade -> fallback" `Quick
            test_assign_budget_degrade;
          Alcotest.test_case "monte_carlo pool-independent" `Quick
            test_monte_carlo_pool_independent ] ) ]
