(* Tests for Nxc_par.Pool: the qcheck parallel_map = List.map property,
   the determinism contract of every ?pool entry point, budget
   partitioning, and the per-chunk observability merge. *)

module P = Nxc_par.Pool
module Budget = Nxc_guard.Budget
module Metrics = Nxc_obs.Metrics
module Span = Nxc_obs.Span
module R = Nxc_reliability
module Lt = Nxc_lattice

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let qtest = Testutil.qtest

(* Pools are shared across test cases (spawning domains per qcheck case
   would dominate the run) and joined at exit. *)
let shared_pools =
  lazy
    (let ps =
       [| P.create ~workers:0 (); P.create ~workers:1 ();
          P.create ~workers:3 (); P.create ~workers:7 () |]
     in
     at_exit (fun () -> Array.iter P.shutdown ps);
     ps)

let pool_of i =
  let ps = Lazy.force shared_pools in
  ps.(i mod Array.length ps)

(* ------------------------------------------------------------------ *)
(* map_range / map / reduce semantics                                  *)
(* ------------------------------------------------------------------ *)

exception Boom of int

let semantics_tests =
  [
    qtest ~count:150 "parallel map_range = sequential map_range"
      QCheck.(pair (int_bound 80) (int_bound 7))
      (fun (n, pi) ->
        let f i = (i * i) + (3 * i) + n in
        let seq = P.map_range n f in
        let par = P.map_range ~pool:(pool_of pi) n f in
        seq = par);
    qtest ~count:100 "parallel map = List.map"
      QCheck.(pair (list_of_size Gen.(int_bound 50) small_int) (int_bound 7))
      (fun (xs, pi) ->
        let f x = (2 * x) - 1 in
        List.map f xs = P.map ~pool:(pool_of pi) f xs);
    qtest ~count:60 "raising tasks raise the lowest index, like List.map"
      QCheck.(pair (int_range 1 60) (int_bound 7))
      (fun (n, pi) ->
        (* every index = 3 mod 7 raises; the join must surface the
           exception of the lowest raising index, which is what a
           sequential loop would have thrown first *)
        let f i = if i mod 7 = 3 then raise (Boom i) else i in
        let outcome g = match g () with
          | (_ : int array) -> None
          | exception Boom i -> Some i
        in
        outcome (fun () -> P.map_range n f)
        = outcome (fun () ->
              P.map_range ~pool:(pool_of pi) n f));
    Alcotest.test_case "empty and negative ranges" `Quick (fun () ->
        check_int "empty" 0 (Array.length (P.map_range ~pool:(pool_of 2) 0 Fun.id));
        check "negative rejected" true
          (match P.map_range (-1) Fun.id with
          | _ -> false
          | exception Invalid_argument _ -> true));
    Alcotest.test_case "of_jobs contract" `Quick (fun () ->
        check "jobs 1 is sequential" true (P.with_jobs 1 Option.is_none);
        (match P.with_jobs 3 (Option.map P.slots) with
        | None -> Alcotest.fail "jobs 3 must build a pool"
        | Some slots -> check_int "3 runner slots" 3 slots);
        check "negative rejected" true
          (match P.with_jobs (-2) Option.is_none with
          | _ -> false
          | exception Invalid_argument _ -> true));
    Alcotest.test_case "with_pool shuts down on exception" `Quick (fun () ->
        check "exception passes through" true
          (match
             P.with_jobs 2 (fun p ->
                 ignore (P.map_range ?pool:p 4 Fun.id);
                 raise Exit)
           with
          | () -> false
          | exception Exit -> true));
  ]

(* ------------------------------------------------------------------ *)
(* determinism of the wired ?pool entry points                         *)
(* ------------------------------------------------------------------ *)

let profile = R.Defect.uniform 0.04

let determinism_tests =
  [
    Alcotest.test_case "bism monte_carlo: pool == sequential" `Quick (fun () ->
        let run pool =
          R.Bism.monte_carlo ?pool (R.Rng.create 77) (R.Bism.Hybrid 5)
            ~trials:12 ~n:24 ~profile ~k_rows:10 ~k_cols:10 ~max_configs:200
        in
        check "identical aggregates and per-trial stats" true
          (run None = run (Some (pool_of 2))));
    Alcotest.test_case "yield recovery_rate: pool == sequential" `Quick
      (fun () ->
        let run pool =
          R.Yield_model.recovery_rate ?pool (R.Rng.create 5) ~trials:20 ~n:20
            ~k:12 ~profile
        in
        check "identical estimate" true (run None = run (Some (pool_of 3))));
    Alcotest.test_case "lifetime monte_carlo: pool == sequential" `Quick
      (fun () ->
        let chip = R.Defect.perfect ~rows:16 ~cols:16 in
        let run pool =
          R.Lifetime.monte_carlo ?pool (R.Rng.create 41) ~chip ~k:8 ~trials:6
            ~horizon:400 ~failure_rate:0.01 ~check_interval:25
        in
        check "identical summaries" true (run None = run (Some (pool_of 1))));
    Alcotest.test_case "placement_sweep: pool == sequential" `Quick (fun () ->
        let l =
          Lt.Altun_riedel.synthesize
            (Nxc_logic.Parse.expr "x1x2 + x2x3 + x1'x3'")
        in
        let run pool =
          R.Defect_flow.placement_sweep ?pool (R.Rng.create 9) ~lattice:l
            ~chips:15 ~n:12 ~profile:(R.Defect.uniform 0.2) ~attempts:40
        in
        check "identical sweep counts" true (run None = run (Some (pool_of 2))));
  ]

(* ------------------------------------------------------------------ *)
(* budget partitioning                                                 *)
(* ------------------------------------------------------------------ *)

let budget_tests =
  [
    Alcotest.test_case "partition splits the remaining steps" `Quick (fun () ->
        let g = Budget.create ~label:"t" ~steps:100 () in
        for _ = 1 to 10 do ignore (Budget.step g) done;
        let slices = Budget.partition g 3 in
        check_int "three slices" 3 (Array.length slices);
        Array.iter
          (fun s ->
            check "degrade policy" true (Budget.policy s = Budget.Degrade);
            check "alive" true (Budget.alive s))
          slices;
        (* each slice can take (100 - 10) / 3 = 30 steps, not more *)
        let s0 = slices.(0) in
        for _ = 1 to 30 do check "slice step ok" true (Budget.step s0) done;
        check "slice exhausts at its share" false (Budget.step s0));
    Alcotest.test_case "absorb charges the parent" `Quick (fun () ->
        let g = Budget.create ~label:"t" ~steps:50 () in
        let slices = Budget.partition g 2 in
        for _ = 1 to 20 do ignore (Budget.step slices.(0)) done;
        for _ = 1 to 15 do ignore (Budget.step slices.(1)) done;
        Budget.absorb g slices;
        check_int "parent charged" 35 (Budget.steps_used g);
        check "parent alive under cap" true (Budget.alive g));
    Alcotest.test_case "absorbing past the cap trips the parent" `Quick
      (fun () ->
        let g = Budget.create ~label:"t" ~steps:10 () in
        let slices = Budget.partition g 1 in
        for _ = 1 to 10 do ignore (Budget.step slices.(0)) done;
        (* the slice itself is spent; charging it back spends the parent *)
        Budget.absorb g slices;
        check "parent exhausted" true
          (Budget.exhausted g || not (Budget.step g)));
    Alcotest.test_case "dead parent yields dead slices" `Quick (fun () ->
        let g = Budget.create ~label:"t" ~steps:0 () in
        ignore (Budget.step g);
        check "parent dead" true (Budget.exhausted g);
        Array.iter
          (fun s -> check "slice dead" true (Budget.exhausted s))
          (Budget.partition g 4));
    Alcotest.test_case "is_limited" `Quick (fun () ->
        check "unlimited" false (Budget.is_limited Budget.unlimited);
        check "steps-capped" true
          (Budget.is_limited (Budget.create ~steps:5 ()));
        check "deadline-capped" true
          (Budget.is_limited (Budget.create ~deadline_ms:1000.0 ())));
    Alcotest.test_case "budgeted parallel batch degrades gracefully" `Quick
      (fun () ->
        (* a starved budget must wind trials down, never raise, and
           still return one stats record per trial *)
        let guard = Budget.create ~label:"t" ~steps:8 () in
        let mc, per =
          Budget.with_current guard (fun () ->
              R.Bism.monte_carlo ~pool:(pool_of 3) (R.Rng.create 3)
                R.Bism.Greedy ~trials:10 ~n:24
                ~profile:(R.Defect.uniform 0.1) ~k_rows:10 ~k_cols:10
                ~max_configs:100)
        in
        check_int "all trials reported" 10 (Array.length per);
        check_int "aggregate sees all trials" 10 mc.R.Bism.mc_trials;
        check "parent budget charged" true (Budget.steps_used guard > 0));
  ]

(* ------------------------------------------------------------------ *)
(* observability merge                                                 *)
(* ------------------------------------------------------------------ *)

let obs_tests =
  [
    Alcotest.test_case "metric totals merge to sequential values" `Quick
      (fun () ->
        let c = Metrics.counter "test.par.work" in
        let h = Metrics.hdr "test.par.size" in
        let task i =
          Metrics.incr c;
          Metrics.hdr_observe h i;
          i
        in
        (* the histogram's entry in the metrics JSON dump *)
        let hist () =
          match Metrics.dump_json () with
          | Nxc_obs.Json.Obj top -> (
              match List.assoc_opt "histograms" top with
              | Some (Nxc_obs.Json.Obj hs) -> List.assoc_opt "test.par.size" hs
              | _ -> None)
          | _ -> None
        in
        let total () = (Metrics.counter_value c, hist ()) in
        Metrics.reset ();
        ignore (P.map_range 25 task);
        let seq = total () in
        Metrics.reset ();
        ignore (P.map_range ~pool:(pool_of 3) 25 task);
        check "counter and histogram totals equal" true (seq = total ()));
    Alcotest.test_case "task spans splice under the enclosing span" `Quick
      (fun () ->
        Span.enable ();
        Span.reset ();
        ignore
          (Span.with_ ~name:"outer" (fun () ->
               P.map_range ~pool:(pool_of 2) 10 (fun i ->
                   Span.with_ ~name:"task" (fun () -> i))));
        Span.disable ();
        let spans = Span.completed () in
        let outer =
          List.find (fun s -> s.Span.name = "outer") spans
        in
        let tasks = List.filter (fun s -> s.Span.name = "task") spans in
        check_int "every task traced" 10 (List.length tasks);
        List.iter
          (fun t ->
            check "parented under outer" true
              (t.Span.parent = Some outer.Span.id);
            check_int "depth below outer" (outer.Span.depth + 1) t.Span.depth)
          tasks;
        let ids = List.map (fun s -> s.Span.id) spans in
        check_int "ids unique" (List.length ids)
          (List.length (List.sort_uniq compare ids));
        Span.reset ());
  ]

let () =
  Alcotest.run "par"
    [ ("semantics", semantics_tests);
      ("determinism", determinism_tests);
      ("budget", budget_tests);
      ("obs", obs_tests) ]
