(* Chaos harness: seeded adversarial runs across the whole pipeline.

   Every run must terminate within its budget and produce either Ok or
   a typed error — never an uncaught exception, never a hang — and
   degraded results must still compute the target function.

   The default sweep (~250 runs) is the tier-1 smoke; `make chaos`
   multiplies it via CHAOS_RUNS.  The seed is printed so any failure
   reproduces with CHAOS_SEED. *)

module G = Nxc_guard
module L = Nxc_logic
module Tt = L.Truth_table
module R = Nxc_reliability
module C = Nxc_core
module Svc = Nxc_service

let seed =
  match Sys.getenv_opt "CHAOS_SEED" with
  | Some s -> int_of_string s
  | None -> 0x5eed

let factor =
  match Sys.getenv_opt "CHAOS_RUNS" with
  | Some s -> max 1 (int_of_string s / 250)
  | None -> 1

let rand = Random.State.make [| seed |]
let runs = ref 0
let failures = ref 0

let fail fmt =
  Format.kasprintf
    (fun msg ->
      incr failures;
      Format.eprintf "CHAOS FAIL: %s@." msg)
    fmt

(* run one adversarial case: catches everything, counts the run, and
   asserts termination produced a value (typed errors included) *)
let case name f =
  incr runs;
  match f () with
  | () -> ()
  | exception e -> fail "%s: uncaught %s" name (Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* Input fuzz: mutated PLA text and expression token soup              *)
(* ------------------------------------------------------------------ *)

let alphabet =
  "x123+*^~'() 01-.\n\tio epqzé\x01\x80" (* valid and hostile bytes mixed *)

let random_string maxlen =
  let len = Random.State.int rand maxlen in
  String.init len (fun _ ->
      alphabet.[Random.State.int rand (String.length alphabet)])

let valid_pla =
  ".i 3\n.o 2\n.p 3\n1-0 10\n011 11\n--1 01\n.e\n"

let mutate s =
  let b = Bytes.of_string s in
  let flips = 1 + Random.State.int rand 4 in
  for _ = 1 to flips do
    let i = Random.State.int rand (Bytes.length b) in
    Bytes.set b i alphabet.[Random.State.int rand (String.length alphabet)]
  done;
  Bytes.to_string b

let fuzz_pla () =
  for _ = 1 to 60 * factor do
    let text =
      if Random.State.bool rand then mutate valid_pla
      else random_string 200
    in
    case "pla" (fun () ->
        match L.Parse.pla_of_string_result text with
        | Ok _ | Error (`Invalid_input _) -> ()
        | Error e -> fail "pla: wrong error kind %s" (G.Error.to_string e))
  done

let fuzz_expr () =
  for _ = 1 to 60 * factor do
    let s = random_string 80 in
    case "expr" (fun () ->
        match L.Parse.expr_result s with
        | Ok f ->
            (* accepted input must round-trip through evaluation *)
            ignore (L.Boolfunc.table f)
        | Error (`Invalid_input _) -> ()
        | Error e -> fail "expr: wrong error kind %s" (G.Error.to_string e))
  done

(* ------------------------------------------------------------------ *)
(* Degenerate functions under tiny budgets                             *)
(* ------------------------------------------------------------------ *)

let degenerate_tables () =
  let mk n i =
    match i mod 5 with
    | 0 -> Tt.of_minterms n [] (* constant 0 *)
    | 1 -> Tt.of_minterms n (List.init (1 lsl n) Fun.id) (* constant 1 *)
    | 2 -> Tt.of_fun_int n (fun m -> m <> 0) (* near-tautology *)
    | 3 -> Tt.of_minterms n [ Random.State.int rand (1 lsl n) ] (* minterm *)
    | _ -> Nxc_oracle.Logic_ref.random_table n ~seed:(Random.State.int rand 10_000)
  in
  for i = 1 to 50 * factor do
    let n = Random.State.int rand 7 in
    let tt = mk n i in
    let steps = Random.State.int rand 100 in
    case "minimize" (fun () ->
        let guard = G.Budget.create ~label:"chaos" ~steps () in
        let cover =
          G.Budget.with_current guard (fun () -> L.Minimize.sop_table tt)
        in
        if not (Tt.equal (Tt.of_cover cover) tt) then
          fail "minimize: degraded cover not equivalent (n=%d steps=%d)" n
            steps)
  done

(* ------------------------------------------------------------------ *)
(* Hostile chips through the end-to-end flow                           *)
(* ------------------------------------------------------------------ *)

let hostile_chips () =
  let funcs =
    [| L.Parse.expr "x1 ^ x2"; L.Parse.expr "x1x2 + x3";
       L.Parse.expr "x1x2 + x1'x2'"; L.Parse.expr "x1 + x2x3" |]
  in
  for i = 1 to 40 * factor do
    let f = funcs.(i mod Array.length funcs) in
    let profile =
      match i mod 3 with
      | 0 -> R.Defect.uniform 1.0 (* all defective *)
      | 1 -> R.Defect.clustered 0.6 (* clustered *)
      | _ -> R.Defect.uniform (Random.State.float rand 0.5)
    in
    let side = 2 + Random.State.int rand 10 in
    let chip =
      R.Defect.generate
        (R.Rng.create (seed + i))
        ~rows:side ~cols:side profile
    in
    let policy =
      if Random.State.bool rand then G.Budget.Degrade else G.Budget.Fail
    in
    let guard =
      G.Budget.create ~label:"chaos" ~policy
        ~steps:(1 + Random.State.int rand 2_000)
        ()
    in
    case "flow" (fun () ->
        match
          G.Budget.with_current guard (fun () ->
              C.Flow.run_result (R.Rng.create (seed + (31 * i))) ~chip f)
        with
        | Ok r ->
            (* a claimed-functional mapping must really compute f *)
            if r.C.Flow.functional && r.C.Flow.mapping = None then
              fail "flow: functional without a mapping"
        | Error (`Budget_exhausted _) -> ()
        | Error e -> fail "flow: wrong error kind %s" (G.Error.to_string e))
  done

let extraction () =
  for i = 1 to 30 * factor do
    let side = 4 + Random.State.int rand 8 in
    let chip =
      R.Defect.generate
        (R.Rng.create (seed + (7 * i)))
        ~rows:side ~cols:side
        (R.Defect.uniform (Random.State.float rand 1.0))
    in
    let guard =
      G.Budget.create ~label:"chaos" ~steps:(Random.State.int rand 500) ()
    in
    case "exact_max" (fun () ->
        let sel =
          G.Budget.with_current guard (fun () -> R.Defect_flow.exact_max chip)
        in
        if not (Nxc_oracle.Assign_ref.selection_defect_free chip sel) then
          fail "exact_max: selection not defect-free (side=%d)" side)
  done

(* ------------------------------------------------------------------ *)
(* BIRA spare allocation under budget exhaustion                       *)
(* ------------------------------------------------------------------ *)

let repair () =
  let degrade_counter () =
    Nxc_obs.Metrics.counter_value
      (Nxc_obs.Metrics.counter "guard.degrade.bira_exact_to_greedy")
  in
  for i = 1 to 30 * factor do
    let side = 4 + Random.State.int rand 8 in
    let spare_rows = Random.State.int rand 4
    and spare_cols = Random.State.int rand 4 in
    let chip =
      R.Defect.generate
        (R.Rng.create (seed + (13 * i)))
        ~rows:(side + spare_rows) ~cols:(side + spare_cols)
        (R.Defect.uniform (Random.State.float rand 0.3))
    in
    let policy =
      if Random.State.bool rand then G.Budget.Degrade else G.Budget.Fail
    in
    (* steps starve the exact search; an occasional already-expired
       deadline exercises the wall-clock path of the same contract *)
    let guard =
      if i mod 5 = 0 then
        G.Budget.create ~label:"chaos" ~policy ~deadline_ms:0.0 ()
      else
        G.Budget.create ~label:"chaos" ~policy
          ~steps:(Random.State.int rand 50)
          ()
    in
    case "bira" (fun () ->
        let before = degrade_counter () in
        match
          G.Budget.with_current guard (fun () ->
              R.Bira.analyze chip ~spare_rows ~spare_cols)
        with
        | Ok sol ->
            (* no partial repair may escape: the logical array the
               solution leaves must exist and pass the BIST oracle *)
            (match
               Nxc_oracle.Assign_ref.repaired_array chip ~rows:side ~cols:side sol
             with
            | Some m ->
                if not (R.Bism.mapping_defect_free chip m) then
                  fail "bira: repaired array not defect-free (side=%d)" side
            | None -> fail "bira: solution leaves no %dx%d array" side side);
            if sol.R.Bira.degraded then begin
              if policy = G.Budget.Fail then
                fail "bira: degraded result under Fail policy";
              if degrade_counter () <= before then
                fail "bira: degradation not counted"
            end
        | Error (`Unsat _) -> ()
        | Error (`Budget_exhausted _) ->
            if policy <> G.Budget.Fail then
              fail "bira: budget error under Degrade policy"
        | Error e -> fail "bira: wrong error kind %s" (G.Error.to_string e))
  done

(* ------------------------------------------------------------------ *)
(* SAT backends under budget exhaustion                                *)
(* ------------------------------------------------------------------ *)

(* [Qm.minimize_table] on the SAT covering backend, through the
   process-wide backend switch the CLI sets; Bnb is restored afterwards *)
let sat_minimize tt =
  L.Qm.set_cover_backend L.Qm.Sat;
  Fun.protect
    ~finally:(fun () -> L.Qm.set_cover_backend L.Qm.Bnb)
    (fun () -> L.Qm.minimize_table tt)

let sat_budget () =
  let counter name =
    Nxc_obs.Metrics.counter_value (Nxc_obs.Metrics.counter name)
  in
  (* Covering backend: scan every step budget from 1 up to the
     instance's full cost, so each exhaustion boundary is hit — prime
     generation starved (qm_to_isop), the first covering solve starved
     (sat_to_bnb), and the optimality proof starved (partial cover).
     Whatever the cut point, the result must stay equivalent. *)
  (* cyclic function: every minterm is covered by exactly two primes,
     so essential extraction finds nothing and the covering backend
     must actually run *)
  let tt =
    Tt.of_fun_int 5 (fun m ->
        let l = m land 7 in
        l <> 0 && l <> 7)
  in
  let on = Tt.minterms tt in
  let full =
    let guard = G.Budget.create ~label:"chaos-sat" ~steps:5_000_000 () in
    G.Budget.with_current guard (fun () -> ignore (sat_minimize tt));
    G.Budget.steps_used guard
  in
  let before = counter "guard.degrade.sat_to_bnb" in
  for steps = 1 to full do
    case "sat-cover" (fun () ->
        let guard = G.Budget.create ~label:"chaos-sat" ~steps () in
        let cover, _ =
          G.Budget.with_current guard (fun () -> sat_minimize tt)
        in
        if not (Tt.equal (Tt.of_cover cover) tt) then
          fail "sat-cover: degraded cover not equivalent (steps=%d)" steps)
  done;
  if counter "guard.degrade.sat_to_bnb" <= before then
    fail "sat-cover: no budget in 1..%d tripped guard.degrade.sat_to_bnb" full;
  (* same starvation under Fail policy: a typed error, never a hang or
     a silently degraded cover *)
  for _ = 1 to 10 * factor do
    let steps = 1 + Random.State.int rand full in
    case "sat-cover-fail" (fun () ->
        let guard =
          G.Budget.create ~label:"chaos-sat" ~policy:G.Budget.Fail ~steps ()
        in
        match
          G.Budget.with_current guard (fun () ->
              L.Qm.minimize_result ~cover_backend:L.Qm.Sat ~n:5 on)
        with
        | Ok (cover, _) ->
            if not (Tt.equal (Tt.of_cover cover) tt) then
              fail "sat-cover-fail: cover not equivalent (steps=%d)" steps
        | Error (`Budget_exhausted _) -> ()
        | Error e ->
            fail "sat-cover-fail: wrong error kind %s" (G.Error.to_string e))
  done;
  (* Exact assignment: random chips under starvation budgets.  Degrade
     must yield a verdict (witnesses re-validated), Fail must surface
     the typed error, and the sat_to_greedy counter must move. *)
  let before = counter "guard.degrade.sat_to_greedy" in
  for i = 1 to 15 * factor do
    let n = 8 + Random.State.int rand 6 in
    let k = 4 + Random.State.int rand 3 in
    let chip =
      R.Defect.generate
        (R.Rng.create (seed + (17 * i)))
        ~rows:n ~cols:n
        (R.Defect.uniform (0.2 +. Random.State.float rand 0.4))
    in
    let policy =
      if Random.State.bool rand then G.Budget.Degrade else G.Budget.Fail
    in
    let steps = 1 + Random.State.int rand 30 in
    case "sat-assign" (fun () ->
        let guard = G.Budget.create ~label:"chaos-sat" ~policy ~steps () in
        match
          G.Budget.with_current guard (fun () ->
              R.Sat_assign.decide ~seed:(seed + i) chip ~k_rows:k ~k_cols:k)
        with
        | Ok (R.Sat_assign.Mappable m) ->
            if not (R.Bism.mapping_defect_free chip m) then
              fail "sat-assign: Mappable witness not defect-free (n=%d)" n
        | Ok (R.Sat_assign.Unmappable (R.Sat_assign.Matching m)) ->
            if
              not
                (Nxc_oracle.Assign_ref.matching_certifies chip
                   ~spares:(2 * (n - k)) m)
            then fail "sat-assign: matching certificate rejected (n=%d)" n
        | Ok (R.Sat_assign.Unmappable R.Sat_assign.Refuted) -> ()
        | Ok (R.Sat_assign.Degraded m) ->
            if policy = G.Budget.Fail then
              fail "sat-assign: degraded verdict under Fail policy";
            Option.iter
              (fun m ->
                if not (R.Bism.mapping_defect_free chip m) then
                  fail "sat-assign: fallback mapping not defect-free (n=%d)" n)
              m
        | Error (`Budget_exhausted _) ->
            if policy <> G.Budget.Fail then
              fail "sat-assign: budget error under Degrade policy"
        | Error e ->
            fail "sat-assign: wrong error kind %s" (G.Error.to_string e))
  done;
  (* the pinned hard instance guarantees at least one mid-solve trip *)
  case "sat-assign" (fun () ->
      let chip =
        R.Defect.generate (R.Rng.create 7) ~rows:12 ~cols:12
          (R.Defect.uniform 0.3)
      in
      let guard = G.Budget.create ~label:"chaos-sat" ~steps:3 () in
      match
        G.Budget.with_current guard (fun () ->
            R.Sat_assign.decide chip ~k_rows:6 ~k_cols:6)
      with
      | Ok (R.Sat_assign.Degraded _) -> ()
      | _ -> fail "sat-assign: tiny budget on hard chip must degrade");
  if counter "guard.degrade.sat_to_greedy" <= before then
    fail "sat-assign: guard.degrade.sat_to_greedy never moved"

(* ------------------------------------------------------------------ *)
(* Job specs: boundary fields for every kind through the engine        *)
(* ------------------------------------------------------------------ *)

(* Each case is a small batch of seeded boundary specs (0, 1 and
   negative fields, k > n, one-column arrays, densities 0 and 1, tiny
   trial counts).  The engine must answer every line with an envelope
   whose exit code is in the 0-5 contract, and a 2-slot pool must give
   the same bytes as the sequential run — a one-line batch takes the
   lone-leader path that lends the pool to the Monte-Carlo trials. *)
let job_specs () =
  let pick a = a.(Random.State.int rand (Array.length a)) in
  let int_field key = Printf.sprintf {|"%s":%d|} key (pick [| -1; 0; 1; 2; 3; 5 |]) in
  (* sizes also probe the bounds (64 a BIST side, 256 a chip side) and
     far past them: an oversized array must be rejected, not built *)
  let size_field key =
    Printf.sprintf {|"%s":%d|} key
      (pick [| -1; 0; 1; 2; 3; 5; 65; 257; 100000 |])
  in
  let density () =
    Printf.sprintf {|"density":%s|} (pick [| "0"; "1"; "0.0"; "1.0"; "0.1"; "1.5"; "-0.2" |])
  in
  let seed () = Printf.sprintf {|"seed":%d|} (Random.State.int rand 1000) in
  let str key values = Printf.sprintf {|"%s":"%s"|} key (pick values) in
  let spec () =
    let fields =
      match Random.State.int rand 6 with
      | 0 ->
          [ {|"kind":"synth"|}; str "expr" [| "x1x2"; "x1 ^ x2"; "0"; "1"; "x1 +" |];
            str "cover_backend" [| "bnb"; "sat"; "dpll" |] ]
      | 1 ->
          [ {|"kind":"flow"|}; str "expr" [| "x1x2"; "x1 ^ x2"; "1"; "x0" |];
            size_field "n"; density (); seed () ]
      | 2 -> [ {|"kind":"bist"|}; size_field "rows"; size_field "cols" ]
      | 3 ->
          [ {|"kind":"bism"|}; size_field "n"; int_field "k"; density ();
            seed (); int_field "trials";
            str "scheme" [| "blind"; "greedy"; "hybrid"; "sat"; "psychic" |] ]
      | 4 -> [ {|"kind":"yield"|}; size_field "n"; density (); seed (); int_field "trials" ]
      | _ ->
          [ {|"kind":"repair"|}; size_field "rows"; size_field "cols";
            size_field "spare_rows"; size_field "spare_cols"; density (); seed ();
            int_field "trials"; str "mode" [| "exact"; "greedy"; "psychic" |] ]
    in
    let fields =
      if Random.State.int rand 4 = 0 then
        fields @ [ Printf.sprintf {|"budget_steps":%d|} (Random.State.int rand 40 - 5) ]
      else fields
    in
    "{" ^ String.concat "," fields ^ "}"
  in
  let envelopes outs =
    List.map (fun o -> Nxc_obs.Json.to_string o.Svc.Engine.envelope) outs
  in
  Nxc_par.Pool.with_jobs 2 @@ fun pool ->
  let pool = Option.get pool in
  for _ = 1 to 30 * factor do
    let lines = List.init (1 + Random.State.int rand 3) (fun _ -> spec ()) in
    let batch = String.concat " " lines in
    case "job-specs" (fun () ->
        let seq = Svc.Engine.run_lines lines in
        let par = Svc.Engine.run_lines ~pool lines in
        List.iter
          (fun o ->
            let code = o.Svc.Engine.exit_code in
            if code < 0 || code > 5 then
              fail "job-specs: exit %d outside 0-5 in %s" code batch)
          (seq @ par);
        if envelopes seq <> envelopes par then
          fail "job-specs: pool changed the envelopes of %s" batch)
  done;
  (* the lines that used to exhaust memory: exit 3, nothing allocated *)
  case "job-specs" (fun () ->
      List.iter
        (fun o ->
          if o.Svc.Engine.exit_code <> 3 then
            fail "job-specs: oversized job answered exit %d, not 3"
              o.Svc.Engine.exit_code)
        (Svc.Engine.run_lines
           [ {|{"kind":"bist","rows":100000,"cols":100000}|};
             {|{"kind":"bism","n":100000}|};
             {|{"kind":"yield","n":100000}|};
             {|{"kind":"repair","rows":100000,"cols":100000}|};
             {|{"kind":"bism","n":2,"k":1,"trials":200000000}|} ]))

(* ------------------------------------------------------------------ *)
(* Determinism: same seed + same budget -> identical outcome           *)
(* ------------------------------------------------------------------ *)

let determinism () =
  for i = 1 to 10 * factor do
    let tt = Nxc_oracle.Logic_ref.random_table 5 ~seed:(seed + i) in
    let steps = 10 + Random.State.int rand 200 in
    case "determinism" (fun () ->
        let run () =
          let guard = G.Budget.create ~steps () in
          let c =
            G.Budget.with_current guard (fun () -> L.Minimize.sop_table tt)
          in
          (L.Cover.to_string c, G.Budget.steps_used guard)
        in
        let a = run () and b = run () in
        if a <> b then fail "determinism: run %d diverged" i)
  done

(* ------------------------------------------------------------------ *)
(* The adversarial 8-input QM instance                                *)
(* ------------------------------------------------------------------ *)

let adversarial_qm () =
  (* ON-set = everything but minterm 0 over Qm's widest input: prime
     generation charges 1,756,280 pair steps; the guard must cut it
     off and the ISOP fallback must still be function-equivalent *)
  let tt = Tt.of_fun_int L.Qm.max_vars (fun m -> m <> 0) in
  case "qm8" (fun () ->
      let guard = G.Budget.create ~label:"qm8" ~steps:300_000 () in
      let cover, _ =
        G.Budget.with_current guard (fun () -> L.Qm.minimize_table tt)
      in
      if not (G.Budget.exhausted guard) then
        fail "qm8: expected the guard to trip";
      if not (Tt.equal (Tt.of_cover cover) tt) then
        fail "qm8: degraded cover not equivalent")

let () =
  Format.printf "chaos: seed=%d factor=%d@." seed factor;
  let t0 = Unix.gettimeofday () in
  fuzz_pla ();
  fuzz_expr ();
  degenerate_tables ();
  hostile_chips ();
  extraction ();
  repair ();
  sat_budget ();
  job_specs ();
  determinism ();
  adversarial_qm ();
  let dt = Unix.gettimeofday () -. t0 in
  Format.printf "chaos: %d runs, %d failures in %.1fs@." !runs !failures dt;
  if !failures > 0 then begin
    (* leave the flight-recorder ring on disk so CI can attach what the
       harness was doing around the failing cases *)
    let oc = open_out "flight.jsonl" in
    let ppf = Format.formatter_of_out_channel oc in
    Nxc_obs.Recorder.export_jsonl ppf;
    Format.pp_print_flush ppf ();
    close_out oc;
    Format.eprintf "chaos: flight recorder dumped to flight.jsonl@."
  end;
  if !runs < 200 then begin
    Format.eprintf "chaos: expected at least 200 runs@.";
    exit 1
  end;
  exit (if !failures = 0 then 0 else 1)
