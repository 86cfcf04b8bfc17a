(* Perf-regression gate over a bench results file.

   Reads a BENCH_results.json (path as argv, default BENCH_results.json)
   and fails when a kernel experiment's determinism or throughput
   contract regresses:

   - every experiment publishing an ["identical"] headline flag (PAR,
     SERVICE, LOADGEN, BITSLICE, BISTSLICE, NPNKEY) must report [true] —
     seeded runs must stay bit-identical whatever --jobs was;
   - a BITSLICE or BISTSLICE experiment must report [min_speedup >= 4]
     — the word-parallel kernels must actually beat their scalar
     reference paths — and BISTSLICE must publish both fields (a silent
     drop of the differential test may not pass the gate);
   - an NPNKEY experiment must publish [identical] and [speedup >= 4]
     — the packed-key NPN search must return the scalar oracle's
     transform and table, and beat it at least 4x;
   - an E6 experiment must finish within its wall-clock floor
     (8 s; the batched BIST kernels hold it around half a second) —
     the coverage/diagnosis sweep may not regress to scalar speed;
   - a LOADGEN experiment must publish a finite, positive [warm_p99_ms]
     — the SLO quantile pipeline must actually produce numbers — plus a
     finite positive [hot_p99_ms_jobsN] for every sweep level
     N in {1,2,4,8}, [identical_across_jobs = true] (the pipelined
     serve path may not change a single envelope byte) and
     [warm_speedup_jobs4 >= 4] (the streaming path must beat the
     synchronous loop at least 4x on warm hot-load traffic);
   - an E17 (repair) experiment must keep [min_margin_vs_blind >= 0] —
     exact BIRA searches the same feasibility space blind BISM samples,
     so repair success may never fall below blind at a matched density
     and spare budget — and must publish a finite positive
     [max_area_overhead] (spares are never free);
   - a SERVICE experiment must keep [warm_hit_rate >= 0.95] — a warm
     rerun of the job mix must resolve (almost) everything from the
     cache;
   - an E1 or E11 experiment must publish [bnb_nodes] and a
     [cover_status] of "exact" or "degraded" — the covering engine must
     say how much search its covers cost and whether any came back
     non-minimal — and E1's core suite must stay "exact";
   - an E1, E11 or E18 experiment must publish [exact_certified] at no
     less than its measured floor (E1 48 of 48 covers, E11 12 of 13,
     E18 73 of 74): the covers that come back exact at their lower
     bound, each certificate checked by the oracle — the lower bound
     may not stop certifying minima it certifies today;
   - an E3 experiment must report [total_best_lattice_area = 1059] and
     an E4 experiment [improved >= 10] of [benchmarks = 24] — the
     lattice sizes of the paper's suite may not drift when the
     minimization or decomposition code under them is made faster;
   - an E18 experiment must report [identical_covers = true] (the SAT
     covering backend agrees with branch-and-bound everywhere),
     [sat_rescues >= 1] (at least one chip was mapped exactly where
     hybrid BISM gave up), and account for every [confirmed_unmappable]
     verdict twice: [unmappable_certified] (matching certificates the
     oracle accepted) plus the stated residue [unmappable_sat_refuted]
     (verdicts only the SAT solver backs) must equal it, and so must
     [unmappable_cross_checked] (verdicts exact BIRA agreed with).

   Exit 0 when every gate passes and at least one identical flag was
   seen; exit 1 otherwise.  Run via `make bench-smoke` / `make check`. *)

module J = Nxc_obs.Json

let fail fmt = Format.kasprintf (fun s -> prerr_endline ("bench_check: " ^ s); exit 1) fmt

let read_file path =
  let ic = try open_in_bin path with Sys_error e -> fail "%s" e in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let str_of = function J.Str s -> s | _ -> "?"

let () =
  let path = if Array.length Sys.argv > 1 then Sys.argv.(1) else "BENCH_results.json" in
  let doc =
    match J.of_string (read_file path) with
    | doc -> doc
    | exception J.Parse_error e -> fail "%s: parse error: %s" path e
  in
  let experiments =
    match J.member "experiments" doc with
    | Some (J.List l) -> l
    | _ -> fail "%s: no experiments list" path
  in
  let checked = ref 0 in
  List.iter
    (fun exp ->
      let id =
        match J.member "id" exp with Some s -> str_of s | None -> "?"
      in
      let headline = J.member "headline" exp in
      let field key = Option.bind headline (J.member key) in
      (match field "identical" with
      | Some (J.Bool true) ->
          incr checked;
          Printf.printf "bench_check: %-9s identical:true\n" id
      | Some v ->
          fail "%s: determinism flag regressed (identical = %s)" id
            (J.to_string v)
      | None -> ());
      let num = function
        | J.Float f -> f
        | J.Int i -> float_of_int i
        | _ -> nan
      in
      (match field "min_speedup" with
      | None -> ()
      | Some v ->
          let s = num v in
          if s >= 4.0 then
            Printf.printf "bench_check: %-9s min_speedup %.1fx\n" id s
          else
            fail "%s: kernel speedup regressed (min_speedup = %s)" id
              (J.to_string v));
      (if id = "BISTSLICE" then begin
         (match field "identical" with
         | Some (J.Bool true) -> ()
         | _ -> fail "BISTSLICE: no identical flag in headline");
         match field "min_speedup" with
         | Some _ -> ()
         | None -> fail "BISTSLICE: no min_speedup in headline"
       end);
      (if id = "NPNKEY" then begin
         (match field "identical" with
         | Some (J.Bool true) -> ()
         | _ -> fail "NPNKEY: no identical flag in headline");
         match field "speedup" with
         | None -> fail "NPNKEY: no speedup in headline"
         | Some v ->
             let s = num v in
             if s >= 4.0 then
               Printf.printf "bench_check: %-9s speedup %.1fx\n" id s
             else
               fail "NPNKEY: NPN key speedup regressed (speedup = %s)"
                 (J.to_string v)
       end);
      (if id = "E6" then
         match J.member "wall_ms" exp with
         | None -> fail "E6: no wall_ms"
         | Some v ->
             let ms = num v in
             if Float.is_finite ms && ms <= 8000.0 then
               Printf.printf "bench_check: %-9s wall %.0fms (floor 8000ms)\n"
                 id ms
             else
               fail
                 "E6: coverage sweep regressed to scalar speed (wall_ms = %s \
                  > 8000)"
                 (J.to_string v));
      (if id = "LOADGEN" then begin
         (match field "warm_p99_ms" with
         | None -> fail "LOADGEN: no warm_p99_ms in headline"
         | Some v ->
             let p99 = num v in
             if Float.is_finite p99 && p99 > 0.0 then
               Printf.printf "bench_check: %-9s warm_p99 %.3fms\n" id p99
             else
               fail "LOADGEN: warm p99 is not a finite positive time (%s)"
                 (J.to_string v));
         (* the --jobs sweep must publish a finite positive warm (hot
            load) p99 at every level, stay byte-identical across
            levels, and beat the synchronous loop >= 4x at --jobs 4 *)
         List.iter
           (fun level ->
             let name = Printf.sprintf "hot_p99_ms_jobs%d" level in
             match field name with
             | None -> fail "LOADGEN: no %s in headline" name
             | Some v ->
                 let p99 = num v in
                 if not (Float.is_finite p99 && p99 > 0.0) then
                   fail "LOADGEN: %s is not a finite positive time (%s)" name
                     (J.to_string v))
           [ 1; 2; 4; 8 ];
         (match field "identical_across_jobs" with
         | Some (J.Bool true) -> ()
         | _ ->
             fail
               "LOADGEN: envelopes not byte-identical across --jobs levels");
         match field "warm_speedup_jobs4" with
         | None -> fail "LOADGEN: no warm_speedup_jobs4 in headline"
         | Some v ->
             let s = num v in
             if Float.is_finite s && s >= 4.0 then
               Printf.printf
                 "bench_check: %-9s warm throughput at --jobs 4 %.1fx\n" id s
             else
               fail
                 "LOADGEN: pipelined serve at --jobs 4 below the 4x warm \
                  throughput floor (warm_speedup_jobs4 = %s)"
                 (J.to_string v)
       end);
      (if id = "E17" then begin
         (match field "min_margin_vs_blind" with
         | None -> fail "E17: no min_margin_vs_blind in headline"
         | Some v ->
             let m = num v in
             if m >= 0.0 then
               Printf.printf "bench_check: %-9s repair margin vs blind %+d\n"
                 id (int_of_float m)
             else
               fail
                 "E17: repair success fell below blind BISM at a matched \
                  cell (min_margin_vs_blind = %s)"
                 (J.to_string v));
         match field "max_area_overhead" with
         | None -> fail "E17: no max_area_overhead in headline"
         | Some v ->
             let o = num v in
             if Float.is_finite o && o > 0.0 then
               Printf.printf "bench_check: %-9s max area overhead %.0f%%\n" id
                 (100.0 *. o)
             else
               fail "E17: spare area overhead is not finite positive (%s)"
                 (J.to_string v)
       end);
      (if id = "SERVICE" then
         match field "warm_hit_rate" with
         | None -> fail "SERVICE: no warm_hit_rate in headline"
         | Some v ->
             let r = num v in
             if r >= 0.95 then
               Printf.printf "bench_check: %-9s warm_hit_rate %.2f\n" id r
             else
               fail "SERVICE: warm cache hit rate regressed (%s < 0.95)"
                 (J.to_string v));
      (if id = "E1" || id = "E11" then begin
         (match field "bnb_nodes" with
         | Some (J.Int nodes) when nodes >= 0 ->
             Printf.printf "bench_check: %-9s bnb_nodes %d\n" id nodes
         | Some v -> fail "%s: bnb_nodes is not a count (%s)" id (J.to_string v)
         | None -> fail "%s: no bnb_nodes in headline" id);
         match field "cover_status" with
         | Some (J.Str ("exact" | "degraded" as st)) ->
             if id = "E1" && st <> "exact" then
               fail "E1: core-suite covers regressed to %s" st
             else Printf.printf "bench_check: %-9s cover_status %s\n" id st
         | Some v -> fail "%s: bad cover_status (%s)" id (J.to_string v)
         | None -> fail "%s: no cover_status in headline" id
       end);
      (match List.assoc_opt id [ ("E1", 48); ("E11", 12); ("E18", 73) ] with
      | None -> ()
      | Some floor -> (
          match field "exact_certified" with
          | Some (J.Int c) when c >= floor ->
              Printf.printf "bench_check: %-9s exact_certified %d (floor %d)\n"
                id c floor
          | Some v ->
              fail "%s: fewer covers certified minimum (exact_certified = %s, \
                    floor %d)"
                id (J.to_string v) floor
          | None -> fail "%s: no exact_certified in headline" id));
      (if id = "E3" then
         match field "total_best_lattice_area" with
         | Some (J.Int 1059) ->
             Printf.printf "bench_check: %-9s total_best_lattice_area 1059\n"
               id
         | Some v ->
             fail "E3: best lattice areas drifted (total_best_lattice_area = \
                   %s, expected 1059)"
               (J.to_string v)
         | None -> fail "E3: no total_best_lattice_area in headline");
      (if id = "E4" then
         match (field "improved", field "benchmarks") with
         | Some (J.Int improved), Some (J.Int 24) when improved >= 10 ->
             Printf.printf "bench_check: %-9s improved %d/24\n" id improved
         | Some v, Some b ->
             fail
               "E4: decomposition improved %s of %s benchmarks (expected at \
                least 10 of 24)"
               (J.to_string v) (J.to_string b)
         | _ -> fail "E4: no improved/benchmarks in headline");
      if id = "E18" then begin
        (match field "identical_covers" with
        | Some (J.Bool true) ->
            Printf.printf "bench_check: %-9s identical_covers:true\n" id
        | Some v ->
            fail
              "E18: SAT covering disagreed with branch-and-bound \
               (identical_covers = %s)"
              (J.to_string v)
        | None -> fail "E18: no identical_covers in headline");
        (match field "sat_rescues" with
        | Some (J.Int r) when r >= 1 ->
            Printf.printf "bench_check: %-9s sat_rescues %d\n" id r
        | Some v ->
            fail
              "E18: exact assignment rescued no chip hybrid BISM missed \
               (sat_rescues = %s)"
              (J.to_string v)
        | None -> fail "E18: no sat_rescues in headline");
        let count key =
          match field key with
          | Some (J.Int n) when n >= 0 -> n
          | Some v -> fail "E18: %s is not a count (%s)" key (J.to_string v)
          | None -> fail "E18: no %s in headline" key
        in
        let confirmed = count "confirmed_unmappable"
        and certified = count "unmappable_certified"
        and refuted = count "unmappable_sat_refuted"
        and cross = count "unmappable_cross_checked" in
        if certified + refuted <> confirmed then
          fail
            "E18: %d matching certificates and %d SAT-only refutations do \
             not account for %d unmappable verdicts"
            certified refuted confirmed;
        if cross <> confirmed then
          fail "E18: exact BIRA confirmed %d of %d unmappable verdicts" cross
            confirmed;
        Printf.printf
          "bench_check: %-9s unmappable %d: %d certified, %d SAT-only, %d \
           cross-checked\n"
          id confirmed certified refuted cross
      end)
    experiments;
  if !checked = 0 then
    fail "%s: no experiment published an identical flag (run PAR/SERVICE/BITSLICE)" path;
  Printf.printf "bench_check: %d determinism gate(s) passed\n" !checked
