(* nanoxcomp — command-line front end.

   Subcommands:
     synth  <expr>      synthesize one function on every technology
     suite              size table over the benchmark suite
     bist               BIST plan statistics and coverage
     bism               self-mapping experiment on random chips
     flow   <expr>      end-to-end synthesize/map/verify pipeline
     yield              k x k recovery statistics
     repair             BIRA/BISR spare-repair experiment on random chips
     stats  <expr>      end-to-end flow + full metrics snapshot
     batch  <jobs.jsonl>  run a JSONL job file through the service engine
     serve              long-lived worker: job specs on stdin, results on stdout

   Every subcommand accepts --trace[=FILE], --trace-format, --metrics,
   the budget flags (--budget-steps, --deadline-ms, --on-exhaustion)
   and --jobs (see the CLI contract section of README.md). *)

open Cmdliner
open Nxc_logic
module R = Nxc_reliability
module Lt = Nxc_lattice
module C = Nxc_core
module Obs = Nxc_obs
module Guard = Nxc_guard

(* ------------------------------------------------------------------ *)
(* observability flags, shared by every subcommand                     *)
(* ------------------------------------------------------------------ *)

type trace_format = Tree | Jsonl | Chrome

let obs_setup trace format metrics log =
  (match log with
  | Some d -> Obs.Log.enable ~dest:d ()
  | None -> () (* NANOXCOMP_LOG may already have enabled it *));
  let dest =
    match trace with
    | Some d ->
        Obs.Span.enable ();
        Some d
    | None -> if Obs.Span.enabled () then Some "-" else None
  in
  (* registered before the trace handler so metrics (stdout) print
     before the stderr trace when both are enabled *)
  if metrics then
    at_exit (fun () ->
        print_string (Obs.Metrics.dump_text ());
        flush stdout);
  match dest with
  | None -> ()
  | Some d ->
      at_exit (fun () ->
          match
            if d = "-" then Ok (Format.err_formatter, fun () -> ())
            else
              match open_out d with
              | oc -> Ok (Format.formatter_of_out_channel oc, fun () -> close_out oc)
              | exception Sys_error msg -> Error msg
          with
          | Error msg -> Format.eprintf "cannot write trace: %s@." msg
          | Ok (ppf, close) ->
              (match format with
              | Tree -> Obs.Span.export_tree ppf
              | Jsonl -> Obs.Span.export_jsonl ppf
              | Chrome -> Obs.Span.export_chrome ppf);
              Format.pp_print_flush ppf ();
              close ())

let obs_term =
  let trace =
    let doc =
      "Record hierarchical spans and export them on exit to $(docv) \
       (use $(b,--trace) alone, or set NANOXCOMP_TRACE, for stderr)."
    in
    Arg.(
      value
      & opt ~vopt:(Some "-") (some string) None
      & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let format =
    let doc = "Trace export format: $(b,tree), $(b,jsonl) or $(b,chrome)." in
    Arg.(
      value
      & opt (enum [ ("tree", Tree); ("jsonl", Jsonl); ("chrome", Chrome) ]) Tree
      & info [ "trace-format" ] ~docv:"FMT" ~doc)
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ] ~doc:"Print the metrics snapshot on exit.")
  in
  let log =
    let doc =
      "Write structured JSONL events to $(docv) (use $(b,--log) alone, or \
       set NANOXCOMP_LOG, for stderr).  Also enables the flight-recorder \
       dump on failing jobs and uncaught exceptions."
    in
    Arg.(
      value
      & opt ~vopt:(Some "-") (some string) None
      & info [ "log" ] ~docv:"FILE" ~doc)
  in
  Term.(const obs_setup $ trace $ format $ metrics $ log)

(* ------------------------------------------------------------------ *)
(* guard flags, shared by every subcommand                             *)
(* ------------------------------------------------------------------ *)

(* an int flag whose value must satisfy [valid]; anything else is a
   usage error (exit 2), like an unknown flag *)
let int_flag ~valid ~expect =
  let parse s =
    match int_of_string_opt s with
    | Some n when valid n -> Ok n
    | Some _ -> Error (`Msg (Printf.sprintf "%s: must be %s" s expect))
    | None ->
        Error
          (`Msg (Printf.sprintf "invalid value '%s', expected an integer" s))
  in
  Arg.conv ~docv:"INT" (parse, Format.pp_print_int)

let guard_setup steps deadline_ms on_exhaustion =
  if steps <> None || deadline_ms <> None || on_exhaustion = Guard.Budget.Fail
  then
    Guard.Budget.set_current
      (Guard.Budget.create ~label:"cli" ~policy:on_exhaustion ?steps
         ?deadline_ms ())

let guard_term =
  let steps =
    let doc =
      "Cap the cooperative work budget at $(docv) steps across the whole \
       pipeline (QM merges, covering nodes, mapping retries, ...)."
    in
    Arg.(
      value
      & opt (some (int_flag ~valid:(fun n -> n > 0) ~expect:"positive")) None
      & info [ "budget-steps" ] ~docv:"STEPS" ~doc)
  in
  let deadline =
    let doc = "Give the pipeline a wall-clock deadline of $(docv) ms." in
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline-ms" ] ~docv:"MS" ~doc)
  in
  let on_exhaustion =
    let doc =
      "What to do when the budget runs out: $(b,degrade) falls back to \
       cheaper methods and keeps going (default), $(b,fail) stops with \
       exit code 4."
    in
    Arg.(
      value
      & opt
          (enum
             [ ("degrade", Guard.Budget.Degrade); ("fail", Guard.Budget.Fail) ])
          Guard.Budget.Degrade
      & info [ "on-exhaustion" ] ~docv:"POLICY" ~doc)
  in
  Term.(const guard_setup $ steps $ deadline $ on_exhaustion)

(* ------------------------------------------------------------------ *)
(* parallelism flag, shared by every subcommand                        *)
(* ------------------------------------------------------------------ *)

let jobs_term =
  let doc =
    "Run Monte-Carlo trials on $(docv) domains: $(b,1) (default) is \
     sequential, $(b,0) picks one per recommended domain.  Seeded runs \
     produce identical results for every $(docv)."
  in
  Arg.(
    value
    & opt
        (int_flag
           ~valid:(fun n -> n >= 0 && n <= Nxc_par.Pool.max_jobs)
           ~expect:(Printf.sprintf "between 0 and %d" Nxc_par.Pool.max_jobs))
        1
    & info [ "jobs"; "j" ] ~docv:"N" ~doc)

(* ------------------------------------------------------------------ *)
(* covering-backend flag, for in-process synthesis                    *)
(* ------------------------------------------------------------------ *)

let backend_term =
  let doc =
    "Exact covering engine for Quine-McCluskey: $(b,bnb) (branch and \
     bound, default) or $(b,sat) (CDCL solver).  Both are exact; on \
     budget exhaustion $(b,sat) degrades back to $(b,bnb) under the \
     $(b,guard.degrade.sat_to_bnb) counter (or exits 4 with \
     $(b,--on-exhaustion fail))."
  in
  let setup b = Qm.set_cover_backend b in
  Term.(
    const setup
    $ Arg.(
        value
        & opt (enum [ ("bnb", Qm.Bnb); ("sat", Qm.Sat) ]) Qm.Bnb
        & info [ "cover-backend" ] ~docv:"ENGINE" ~doc))

(* every subcommand takes the setup terms and receives the --jobs value *)
let common_term =
  Term.(const (fun () () jobs -> jobs) $ obs_term $ guard_term $ jobs_term)

(* [common_term] plus --cover-backend, for the subcommands that call
   Synth or Flow themselves; job specs carry their own backend *)
let synth_common_term =
  Term.(const (fun () jobs -> jobs) $ backend_term $ common_term)

let die_error e =
  Guard.Error.count e;
  Format.eprintf "nanoxcomp: %s@." (Guard.Error.to_string e);
  exit (Guard.Error.exit_code e)

let expr_arg =
  let doc = "Boolean expression over x1, x2, ... (e.g. \"x1x2 + x1'x2'\")." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"EXPR" ~doc)

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"random seed")

let density_arg =
  Arg.(
    value
    & opt float 0.05
    & info [ "density"; "d" ] ~docv:"D" ~doc:"defect density (fraction)")

let parse_or_die expr =
  match Parse.expr_result expr with Ok f -> f | Error e -> die_error e

(* ------------------------------------------------------------------ *)

let synth_cmd =
  let run _jobs expr show_lattice =
    let f = parse_or_die expr in
    let impl =
      match C.Synth.synthesize_result f with
      | Ok impl -> impl
      | Error e -> die_error e
    in
    if impl.C.Synth.degraded then
      Format.eprintf "note: budget exhausted, synthesis degraded@.";
    let s = C.Synth.sizes impl in
    print_endline C.Report.size_header;
    print_endline (C.Report.size_row s);
    if not (C.Synth.verify impl) then begin
      Format.eprintf "internal error: verification failed@.";
      exit 1
    end;
    Format.printf "@.products(f) = %d, products(f^D) = %d, literals = %d@."
      impl.C.Synth.products impl.C.Synth.dual_products
      impl.C.Synth.distinct_literals;
    if show_lattice then
      Format.printf "@.best lattice:@.%a@." Lt.Lattice.pp
        (C.Synth.best_lattice impl)
  in
  let show_lattice =
    Arg.(value & flag & info [ "lattice" ] ~doc:"print the best lattice grid")
  in
  Cmd.v
    (Cmd.info "synth" ~doc:"synthesize a function on all technologies")
    Term.(const run $ synth_common_term $ expr_arg $ show_lattice)

let suite_cmd =
  let run _jobs full =
    let benches = if full then Nxc_suite.all () else Nxc_suite.core () in
    let rows =
      List.map
        (fun b ->
          C.Synth.sizes
            (C.Synth.synthesize
               ~decompose:(Boolfunc.n_vars b.Nxc_suite.func <= 6)
               b.Nxc_suite.func))
        benches
    in
    print_endline (C.Report.size_table rows)
  in
  let full =
    Arg.(
      value & flag
      & info [ "full" ] ~doc:"include the larger benchmarks (slower)")
  in
  Cmd.v
    (Cmd.info "suite" ~doc:"size comparison over the benchmark suite")
    Term.(const run $ synth_common_term $ full)

(* ------------------------------------------------------------------ *)
(* simulation subcommands: one-job batches through the service engine  *)
(* ------------------------------------------------------------------ *)

module Svc = Nxc_service
module J = Obs.Json

(* The flags become a job spec, checked by the same validator as a
   batch or serve line, and the engine runs it as a one-job batch; a
   lone job computes on this domain and lends --jobs' pool to its
   Monte-Carlo trials.  [print] renders the result payload as text;
   an error envelope is reported the way [die_error] reports one. *)
let run_job jobs kind fields print =
  let job =
    match Svc.Job.of_json (J.Obj (("kind", J.Str kind) :: fields)) with
    | Ok job -> job
    | Error e -> die_error e
  in
  let o =
    Nxc_par.Pool.with_jobs jobs @@ fun pool ->
    List.hd (Svc.Engine.run_jobs ?pool [ job ])
  in
  let env = o.Svc.Engine.envelope in
  (match (J.member "result" env, J.member "error" env) with
  | Some result, _ -> print result
  | None, Some (J.Str msg) -> Format.eprintf "nanoxcomp: %s@." msg
  | None, _ -> ());
  if o.Svc.Engine.exit_code <> 0 then exit o.Svc.Engine.exit_code

(* result payload fields, typed as the engine writes them for the kind *)
let int_of key r =
  match J.member key r with Some (J.Int i) -> i | _ -> invalid_arg key

let float_of key r =
  match J.member key r with Some (J.Float f) -> f | _ -> invalid_arg key

let bool_of key r = J.member key r = Some (J.Bool true)

let string_enum values = Arg.enum (List.map (fun s -> (s, s)) values)

let bist_cmd =
  let run jobs rows cols =
    run_job jobs "bist" [ ("rows", J.Int rows); ("cols", J.Int cols) ]
    @@ fun r ->
    Format.printf "plan for %dx%d: %d configurations (%d group), %d vectors@."
      rows cols (int_of "configs" r) (int_of "group_configs" r)
      (int_of "vectors" r);
    Format.printf "faults: %d, coverage %.1f%%@." (int_of "faults" r)
      (float_of "coverage_pct" r)
  in
  let rows =
    Arg.(value & opt int 8 & info [ "rows"; "r" ] ~docv:"R" ~doc:"array rows")
  in
  let cols =
    Arg.(value & opt int 8 & info [ "cols"; "c" ] ~docv:"C" ~doc:"array cols")
  in
  Cmd.v
    (Cmd.info "bist" ~doc:"test-plan statistics and fault coverage")
    Term.(const run $ common_term $ rows $ cols)

let bism_cmd =
  let run jobs n k density scheme seed trials =
    run_job jobs "bism"
      [ ("n", J.Int n); ("k", J.Int k); ("density", J.Float density);
        ("seed", J.Int seed); ("trials", J.Int trials);
        ("scheme", J.Str scheme) ]
    @@ fun r ->
    if scheme = "sat" then
      Format.printf
        "%d/%d chips mapped (k=%d on N=%d at %.1f%% defects), %d proven \
         unmappable, %d degraded@."
        (int_of "mapped" r) trials k n (100.0 *. density)
        (int_of "unmappable" r) (int_of "degraded" r)
    else
      Format.printf
        "%d/%d chips mapped (k=%d on N=%d at %.1f%% defects), avg %.1f \
         configurations@."
        (int_of "mapped" r) trials k n (100.0 *. density)
        (float_of "avg_configs" r)
  in
  let n = Arg.(value & opt int 32 & info [ "n" ] ~docv:"N" ~doc:"chip side") in
  let k =
    Arg.(value & opt int 12 & info [ "k" ] ~docv:"K" ~doc:"logical side")
  in
  let scheme =
    Arg.(
      value
      & opt (string_enum Svc.Job.schemes) "hybrid"
      & info [ "scheme" ] ~docv:"SCHEME"
          ~doc:
            "blind, greedy or hybrid (heuristic BISM), or sat (exact \
             mappability decision with witness)")
  in
  let trials =
    Arg.(value & opt int 20 & info [ "trials" ] ~docv:"T" ~doc:"chips to try")
  in
  Cmd.v
    (Cmd.info "bism" ~doc:"built-in self-mapping experiment")
    Term.(const run $ common_term $ n $ k $ density_arg $ scheme $ seed_arg $ trials)

let flow_cmd =
  let run jobs expr n density seed =
    run_job jobs "flow"
      [ ("expr", J.Str expr); ("n", J.Int n); ("density", J.Float density);
        ("seed", J.Int seed) ]
    @@ fun r ->
    let lattice = Option.get (J.member "lattice" r) in
    Format.printf "lattice %dx%d on a %dx%d chip (%.1f%% defects)@."
      (int_of "rows" lattice) (int_of "cols" lattice) n n
      (float_of "defect_pct" r);
    Format.printf "mapped: %b@." (bool_of "mapped" r);
    Format.printf "functional after mapping: %b@." (bool_of "functional" r)
  in
  let n = Arg.(value & opt int 24 & info [ "n" ] ~docv:"N" ~doc:"chip side") in
  Cmd.v
    (Cmd.info "flow" ~doc:"end-to-end synthesize, self-map and verify")
    Term.(const run $ common_term $ expr_arg $ n $ density_arg $ seed_arg)

let yield_cmd =
  let run jobs n density trials =
    (* the job's default seed, 1, is the yield experiment's fixed seed *)
    run_job jobs "yield"
      [ ("n", J.Int n); ("density", J.Float density); ("trials", J.Int trials) ]
    @@ fun r ->
    Format.printf "N=%d, density %.1f%%: mean recovered k = %.1f@." n
      (100.0 *. density) (float_of "mean_max_k" r);
    List.iter
      (fun (y, key) ->
        Format.printf "  k guaranteed at %.0f%% yield: %d@." y (int_of key r))
      [ (50., "k_at_50"); (90., "k_at_90"); (99., "k_at_99") ]
  in
  let n = Arg.(value & opt int 32 & info [ "n" ] ~docv:"N" ~doc:"chip side") in
  let trials =
    Arg.(value & opt int 40 & info [ "trials" ] ~docv:"T" ~doc:"Monte Carlo trials")
  in
  Cmd.v
    (Cmd.info "yield" ~doc:"defect-unaware flow yield statistics")
    Term.(const run $ common_term $ n $ density_arg $ trials)

let repair_cmd =
  let run jobs rows cols spare_rows spare_cols density seed trials mode =
    run_job jobs "repair"
      [ ("rows", J.Int rows); ("cols", J.Int cols);
        ("spare_rows", J.Int spare_rows); ("spare_cols", J.Int spare_cols);
        ("density", J.Float density); ("seed", J.Int seed);
        ("trials", J.Int trials); ("mode", J.Str mode) ]
    @@ fun r ->
    Format.printf
      "%d/%d chips repaired (%dx%d + %d/%d spares at %.1f%% defects)@."
      (int_of "repaired" r) trials rows cols spare_rows spare_cols
      (100.0 *. density);
    Format.printf
      "avg %.1f spare lines per repaired chip, %d must-repair lines, %d \
       degraded trials@."
      (float_of "avg_spares" r) (int_of "must_lines" r)
      (int_of "degraded_trials" r);
    Format.printf "spare area overhead: %.1f%%@."
      (100.0 *. float_of "area_overhead" r)
  in
  let rows =
    Arg.(
      value & opt int 12 & info [ "rows"; "r" ] ~docv:"R" ~doc:"logical rows")
  in
  let cols =
    Arg.(
      value & opt int 12 & info [ "cols"; "c" ] ~docv:"C" ~doc:"logical cols")
  in
  let spare_rows =
    Arg.(
      value & opt int 2
      & info [ "spare-rows" ] ~docv:"SR" ~doc:"spare rows fabricated")
  in
  let spare_cols =
    Arg.(
      value & opt int 2
      & info [ "spare-cols" ] ~docv:"SC" ~doc:"spare columns fabricated")
  in
  let trials =
    Arg.(value & opt int 20 & info [ "trials" ] ~docv:"T" ~doc:"chips to try")
  in
  let mode =
    Arg.(
      value
      & opt (string_enum Svc.Job.repair_modes) "exact"
      & info [ "mode" ] ~docv:"MODE" ~doc:"spare allocation: exact or greedy")
  in
  Cmd.v
    (Cmd.info "repair" ~doc:"BIRA/BISR spare-repair experiment")
    Term.(
      const run $ common_term $ rows $ cols $ spare_rows $ spare_cols
      $ density_arg $ seed_arg $ trials $ mode)

let pla_cmd =
  let run _jobs path =
    let text =
      let ic = open_in path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s
    in
    match Parse.pla_of_string_result text with
    | Error e -> die_error e
    | Ok p ->
        let fs =
          Array.to_list
            (Array.mapi
               (fun o cover ->
                 let name =
                   match p.Parse.output_labels with
                   | Some labels when List.length labels > o ->
                       List.nth labels o
                   | _ -> Printf.sprintf "y%d" o
                 in
                 Boolfunc.of_cover ~name cover)
               p.Parse.on_sets)
        in
        let nonconst =
          List.filter (fun f -> Boolfunc.is_const f = None) fs
        in
        Format.printf "%d inputs, %d outputs (%d non-constant)@.@."
          p.Parse.inputs p.Parse.outputs (List.length nonconst);
        print_endline C.Report.size_header;
        List.iter
          (fun f ->
            print_endline (C.Report.size_row (C.Synth.sizes (C.Synth.synthesize f))))
          nonconst;
        match nonconst with
        | _ :: _ :: _ ->
            let x = Nxc_crossbar.Multi.synthesize nonconst in
            let d = Nxc_crossbar.Multi.dims x in
            Format.printf
              "@.shared multi-output crossbar: %dx%d (%d products)@."
              d.Nxc_crossbar.Model.rows d.Nxc_crossbar.Model.cols
              (Nxc_crossbar.Multi.num_products x)
        | _ -> ()
  in
  let path =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"PLA file")
  in
  Cmd.v
    (Cmd.info "pla" ~doc:"synthesize every output of a Berkeley PLA file")
    Term.(const run $ synth_common_term $ path)

let machine_cmd =
  let run _jobs program n =
    let prog =
      match program with
      | "sum" -> C.Machine.assemble_sum_1_to_n ~n
      | "fib" -> C.Machine.assemble_fibonacci ~steps:n
      | p ->
          Format.eprintf "unknown program %S (have: sum, fib)@." p;
          exit 2
    in
    let m = C.Machine.create ~word_bits:8 ~data_words:8 ~program:prog () in
    Format.printf
      "accumulator machine: %d lattice sites of combinational logic@."
      (C.Machine.lattice_sites m);
    let final = C.Machine.run m in
    Format.printf "ran %S n=%d: %d cycles, result mem[0] = %d@." program n
      final.C.Machine.steps (C.Machine.peek m 0)
  in
  let program =
    Arg.(value & pos 0 string "sum" & info [] ~docv:"PROGRAM" ~doc:"sum or fib")
  in
  let n =
    Arg.(value & opt int 10 & info [ "n" ] ~docv:"N" ~doc:"program parameter")
  in
  Cmd.v
    (Cmd.info "machine"
       ~doc:"run a demo program on the lattice-fabric accumulator machine")
    Term.(const run $ synth_common_term $ program $ n)

let stats_cmd =
  let run _jobs expr json prom n density seed =
    let f = parse_or_die expr in
    let chip =
      R.Defect.generate (R.Rng.create seed) ~rows:n ~cols:n
        (R.Defect.uniform density)
    in
    let result = C.Flow.run (R.Rng.create (seed + 1)) ~chip f in
    Format.printf "flow: mapped=%b functional=%b@.@."
      result.C.Flow.bism.R.Bism.success result.C.Flow.functional;
    if prom then print_string (Obs.Metrics.dump_prometheus ())
    else if json then
      print_endline (Obs.Json.to_string (Obs.Metrics.dump_json ()))
    else print_string (Obs.Metrics.dump_text ())
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"emit the snapshot as JSON instead of text")
  in
  let prom =
    Arg.(
      value & flag
      & info [ "prom" ]
          ~doc:"emit the snapshot as Prometheus text exposition")
  in
  let n = Arg.(value & opt int 24 & info [ "n" ] ~docv:"N" ~doc:"chip side") in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "run the end-to-end flow once and print the pipeline metrics \
          snapshot")
    Term.(
      const run $ synth_common_term $ expr_arg $ json $ prom $ n $ density_arg
      $ seed_arg)

(* ------------------------------------------------------------------ *)
(* service modes: batch + serve                                        *)
(* ------------------------------------------------------------------ *)

let cache_arg =
  let doc =
    "Persist the result cache to $(docv) (loaded before the run, saved \
     after).  $(b,--cache) alone uses the default path; without the \
     flag the cache lives in memory for the run only."
  in
  Arg.(
    value
    & opt ~vopt:(Some Svc.Cache.default_path) (some string) None
    & info [ "cache" ] ~docv:"FILE" ~doc)

(* one cache shard per runner slot, so parallel cache traffic contends
   on different locks; a sequential run keeps the historical single
   shard (and its exact metric surface) *)
let shards_of_pool = function
  | Some p -> Nxc_par.Pool.slots p
  | None -> 1

let with_disk_cache ?shards path f =
  let cache = Svc.Cache.create ?shards () in
  (* a file that fails to load is left as found: saving over it would
     drop its valid entries *)
  let save_to =
    match path with
    | None -> None
    | Some p -> (
        match Svc.Cache.load cache p with
        | Ok _ -> Some p
        | Error e ->
            Format.eprintf
              "nanoxcomp: ignoring cache %s: %s; leaving it unchanged@." p
              (Guard.Error.to_string e);
            None)
  in
  let r = f cache in
  (match save_to with
  | None -> ()
  | Some p -> (
      match Svc.Cache.save cache p with
      | Ok _ -> ()
      | Error e ->
          Format.eprintf "nanoxcomp: cannot save cache %s: %s@." p
            (Guard.Error.to_string e)));
  r

let batch_cmd =
  let run jobs path cache_path output =
    let lines =
      match open_in path with
      | exception Sys_error msg ->
          die_error (Guard.Error.invalid_input msg)
      | ic ->
          let rec go acc =
            match input_line ic with
            | exception End_of_file ->
                close_in ic;
                List.rev acc
            | "" -> go acc
            | l -> go (l :: acc)
          in
          go []
    in
    let outcomes =
      Nxc_par.Pool.with_jobs jobs @@ fun pool ->
      with_disk_cache ~shards:(shards_of_pool pool) cache_path
      @@ fun cache -> Svc.Engine.run_lines ?pool ~cache lines
    in
    let oc, close =
      match output with
      | None -> (stdout, fun () -> flush stdout)
      | Some p -> (
          match open_out p with
          | oc -> (oc, fun () -> close_out oc)
          | exception Sys_error msg ->
              die_error (Guard.Error.invalid_input msg))
    in
    List.iter
      (fun o ->
        output_string oc (Obs.Json.to_string o.Svc.Engine.envelope);
        output_char oc '\n')
      outcomes;
    close ();
    let code = Svc.Engine.batch_exit outcomes in
    if code <> 0 then
      Obs.Log.dump_flight
        ~reason:(Printf.sprintf "batch exit %d" code);
    exit code
  in
  let path =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"JOBS" ~doc:"JSONL job file (one spec per line)")
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "output"; "o" ] ~docv:"FILE"
          ~doc:"Write result envelopes to $(docv) instead of stdout.")
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "process a JSONL job file through the service engine \
          (deterministically ordered results, NPN-cached synthesis)")
    Term.(const run $ common_term $ path $ cache_arg $ output)

let serve_cmd =
  let run jobs cache_path window deadline_ms =
    Nxc_par.Pool.with_jobs jobs @@ fun pool ->
    with_disk_cache ~shards:(shards_of_pool pool) cache_path @@ fun cache ->
    (* without a pool the window defaults to one job, so each request
       line is answered before the next one is read *)
    let window = if jobs = 1 && window = None then Some 1 else window in
    let stream =
      Svc.Engine.Stream.create ?pool ~cache ?window ?deadline_ms ()
    in
    let emit outs =
      List.iter
        (fun o ->
          print_string (Obs.Json.to_string o.Svc.Engine.envelope);
          print_newline ();
          if o.Svc.Engine.exit_code <> 0 then
            Obs.Log.dump_flight
              ~reason:
                (Printf.sprintf "serve envelope exit %d" o.Svc.Engine.exit_code))
        outs;
      if outs <> [] then flush stdout
    in
    let rec loop () =
      match input_line stdin with
      | exception End_of_file -> emit (Svc.Engine.Stream.flush stream)
      | "" -> loop ()
      | "__flush__" ->
          (* control line: drain the window without waiting for it to
             fill (clients that need an answer now) *)
          emit (Svc.Engine.Stream.flush stream);
          loop ()
      | "__stats__" ->
          (* control line: one-line metrics snapshot (with quantiles),
             never a job envelope; pending jobs resolve first, so the
             snapshot reflects everything read so far *)
          emit (Svc.Engine.Stream.flush stream);
          print_string (Obs.Json.to_string (Obs.Metrics.dump_json ()));
          print_newline ();
          flush stdout;
          loop ()
      | line ->
          emit (Svc.Engine.Stream.push stream line);
          loop ()
    in
    loop ()
  in
  let window_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "window" ] ~docv:"N"
          ~doc:
            "Stream up to $(docv) jobs in flight before resolving a \
             batch (default: 4 per runner slot, or 1 at --jobs 1, which \
             answers each line before reading the next).")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "job-deadline-ms" ] ~docv:"MS"
          ~doc:
            "Admission control: reject a job up-front (error envelope, \
             exit code 4, label \"admission\") when the queue ahead of \
             it is not expected to drain within $(docv) milliseconds.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "long-lived worker: read one JSON job spec per stdin line, \
          answer with one result envelope per stdout line (--jobs N \
          pipelines a bounded window of jobs through the pool; \
          __stats__ and __flush__ are control lines)")
    Term.(const run $ common_term $ cache_arg $ window_arg $ deadline_arg)

let () =
  let info =
    Cmd.info "nanoxcomp" ~version:"1.0.0"
      ~doc:"logic synthesis and fault tolerance for nano-crossbar arrays"
  in
  (* exit-code contract: 0 ok, 1 internal error, 2 usage, 3 invalid
     input, 4 budget exhausted without degradation, 5 unsat/non-
     functional.  Subcommands exit with 1/3/4/5 themselves (via
     [die_error]); usage and uncaught-exception outcomes are mapped
     here. *)
  exit
    (match
       Cmd.eval_value
         (Cmd.group info
            [ synth_cmd; suite_cmd; bist_cmd; bism_cmd; flow_cmd; yield_cmd;
              repair_cmd; pla_cmd; machine_cmd; stats_cmd; batch_cmd;
              serve_cmd ])
     with
    | Ok (`Ok ()) | Ok `Help | Ok `Version -> 0
    | Error (`Parse | `Term) -> 2
    | Error `Exn ->
        (* cmdliner already printed the exception; the flight recorder
           has the last thing the process was doing (when --log is on) *)
        Obs.Log.dump_flight ~reason:"uncaught exception";
        1)
