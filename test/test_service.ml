(* Service-layer tests: NPN canonicalization, the result cache, job
   parsing and the engine's determinism/cache-equivalence contracts. *)

open Nxc_logic
open Nxc_oracle.Npn_ref
module Tt = Truth_table
module Svc = Nxc_service
module G = Nxc_guard
module J = Nxc_obs.Json

(* ---------------- NPN canonicalization ----------------------------- *)

let test_npn_identity () =
  let f = Nxc_oracle.Logic_ref.random_table 3 ~seed:17 in
  Alcotest.(check bool)
    "identity transform is a no-op" true
    (Tt.equal
       (Npn.apply
          { Npn.perm = Array.init 3 Fun.id; input_neg = Array.make 3 false;
            output_neg = false }
          f)
       f)

let test_npn_num_transforms () =
  List.iter
    (fun n ->
      (* 2^(n+1) n! transforms: every permutation, input-negation mask
         and output phase *)
      let rec fact k = if k <= 1 then 1 else k * fact (k - 1) in
      Alcotest.(check int)
        (Printf.sprintf "num_transforms %d" n)
        (Seq.length (transforms n))
        ((1 lsl (n + 1)) * fact n))
    [ 1; 2; 3; 4 ]

(* the key the NPN cache files a function under *)
let canonical_key f = Npn.table_key (snd (Npn.canonical f))

(* the headline property: every one of the 2^(n+1)*n! transforms of a
   function lands on the same canonical key *)
let npn_class_key_prop n f =
  let key = canonical_key f in
  Seq.for_all
    (fun t -> String.equal key (canonical_key (Npn.apply t f)))
    (transforms n)

let test_npn_class_n4 () =
  (* deterministic n = 4 witness: all 768 transforms, one key *)
  let f = Boolfunc.table (Parse.expr "(x1 + x2')(x3 + x4) + x1'x3'") in
  Alcotest.(check bool) "768 transforms, one key" true (npn_class_key_prop 4 f)

let test_npn_canonical_transform () =
  (* canonical returns a witness transform: apply t f = g *)
  List.iter
    (fun seed ->
      let f = Nxc_oracle.Logic_ref.random_table 3 ~seed in
      let t, g = Npn.canonical f in
      Alcotest.(check bool) "apply t f = g" true (Tt.equal (Npn.apply t f) g))
    [ 1; 2; 3; 4; 5 ]

let same_canonical f =
  let t, g = Npn.canonical f and rt, rg = reference_canonical f in
  t.Npn.perm = rt.Npn.perm
  && t.Npn.input_neg = rt.Npn.input_neg
  && t.Npn.output_neg = rt.Npn.output_neg
  && Tt.equal g rg

let check_reference f =
  if not (same_canonical f) then
    Alcotest.failf "canonical differs from the reference on %a" Testutil.pp_table f

let test_npn_reference_small () =
  for n = 0 to 3 do
    for code = 0 to (1 lsl (1 lsl n)) - 1 do
      check_reference (Tt.of_fun_int n (fun m -> (code lsr m) land 1 = 1))
    done
  done

(* every totally symmetric n=5 function (a value per input weight):
   their classes are small and ties between transforms are everywhere *)
let test_npn_reference_symmetric () =
  for code = 0 to 63 do
    check_reference
      (Tt.of_fun_int 5 (fun m ->
           let w = ref 0 in
           for i = 0 to 4 do
             w := !w + ((m lsr i) land 1)
           done;
           (code lsr !w) land 1 = 1))
  done

(* one step per (permutation, input-negation) pair: 3!·2^3 = 48 at n=3 *)
let test_npn_budget_charge () =
  let f = Nxc_oracle.Logic_ref.random_table 3 ~seed:11 in
  let exact_t, exact_g = Npn.canonical f in
  let semi_g = if Tt.compare (Tt.bnot f) f < 0 then Tt.bnot f else f in
  (* the witness must tell the two forms apart *)
  Alcotest.(check bool) "exact form is not the semi form" false
    (Tt.equal exact_g semi_g);
  let b = G.Budget.create ~steps:48 () in
  let t, g = G.Budget.with_current b (fun () -> Npn.canonical f) in
  Alcotest.(check int) "48 steps" 48 (G.Budget.steps_used b);
  Alcotest.(check bool) "exact within 48 steps" true
    (t = exact_t && Tt.equal g exact_g);
  let counter name = Nxc_obs.Metrics.(counter_value (counter name)) in
  let degrade0 = counter "guard.degrade.npn_semi"
  and semi0 = counter "npn.semi" in
  let t, g =
    G.Budget.with_current (G.Budget.create ~steps:47 ()) (fun () ->
        Npn.canonical f)
  in
  Alcotest.(check bool) "semi form at 47 steps" true
    (t.Npn.perm = [| 0; 1; 2 |]
    && t.Npn.input_neg = [| false; false; false |]
    && Tt.equal g semi_g);
  Alcotest.(check int) "guard.degrade.npn_semi +1" (degrade0 + 1)
    (counter "guard.degrade.npn_semi");
  Alcotest.(check int) "npn.semi +1" (semi0 + 1) (counter "npn.semi")

let test_npn_semi_above_limit () =
  (* exhaustive search stops at six inputs *)
  let n = 7 in
  let f = Nxc_oracle.Logic_ref.random_table n ~seed:3 in
  let key = canonical_key f in
  let nkey = canonical_key (Tt.bnot f) in
  Alcotest.(check string) "semi-canonical unifies output phase" key nkey

(* ---------------- cover transforms --------------------------------- *)

let cover_semantics_prop (c, t) =
  (* cover_to_canon relabels a cover of f into a cover of the NP image *)
  let f = Tt.of_cover c in
  let g = Npn.apply { t with Npn.output_neg = false } f in
  Tt.equal (Tt.of_cover (Npn.cover_to_canon t c)) g

let cover_roundtrip_prop (c, t) =
  let c' = Npn.cover_of_canon t (Npn.cover_to_canon t c) in
  String.equal (Cover.to_string c) (Cover.to_string c')

let arb_cover_transform n =
  let gen =
    QCheck.Gen.(
      pair (Testutil.gen_cover n)
        (map
           (fun (i, mask, o) ->
             let perms = permutations n in
             { Npn.perm = List.nth perms (i mod List.length perms);
               input_neg = Array.init n (fun v -> (mask lsr v) land 1 = 1);
               output_neg = o })
           (triple nat (int_bound ((1 lsl n) - 1)) bool)))
  in
  QCheck.make ~print:(fun (c, _) -> Cover.to_string c) gen

(* ---------------- cache ------------------------------------------- *)

(* A cache holds 4096 entries; [fill c] adds keys k0000..k4095, whose
   sorted order is their insertion order. *)
let cache_capacity = 4096
let cache_key i = Printf.sprintf "k%04d" i

let fill c =
  for i = 0 to cache_capacity - 1 do
    Svc.Cache.add c (cache_key i) (J.Int i)
  done

let evictions () =
  Nxc_obs.Metrics.counter_value (Nxc_obs.Metrics.counter "service.cache.evictions")

let test_cache_lru () =
  let c = Svc.Cache.create () in
  fill c;
  let before = evictions () in
  ignore (Svc.Cache.find c (cache_key 0));
  (* recency: k0000 fresher than k0001 *)
  Svc.Cache.add c "new" (J.Int (-1));
  (* evicts k0001 *)
  Alcotest.(check int) "one eviction" 1 (evictions () - before);
  let path = Filename.temp_file "nxc-cache" ".jsonl" in
  (match Svc.Cache.save c path with
  | Ok n -> Alcotest.(check int) "size at capacity" cache_capacity n
  | Error e -> Alcotest.failf "save: %s" (G.Error.to_string e));
  Sys.remove path;
  Alcotest.(check bool) "k0000 survives" true
    (Svc.Cache.peek c (cache_key 0) <> None);
  Alcotest.(check bool) "k0001 evicted" true
    (Svc.Cache.peek c (cache_key 1) = None);
  ignore (Svc.Cache.find c (cache_key 1));
  Alcotest.(check int) "hits counted" 1 (Svc.Cache.hits c);
  Alcotest.(check int) "misses counted" 1 (Svc.Cache.misses c)

let test_cache_save_load () =
  let path = Filename.temp_file "nxc-cache" ".jsonl" in
  let c = Svc.Cache.create () in
  Svc.Cache.add c "k2" (J.Obj [ ("x", J.Int 2) ]);
  Svc.Cache.add c "k1" (J.Str "one");
  (match Svc.Cache.save c path with
  | Ok n -> Alcotest.(check int) "saved" 2 n
  | Error e -> Alcotest.failf "save: %s" (G.Error.to_string e));
  let c' = Svc.Cache.create () in
  (match Svc.Cache.load c' path with
  | Ok n -> Alcotest.(check int) "loaded" 2 n
  | Error e -> Alcotest.failf "load: %s" (G.Error.to_string e));
  Alcotest.(check bool)
    "value roundtrips" true
    (Svc.Cache.peek c' "k1" = Some (J.Str "one"));
  Sys.remove path;
  (* a missing file is an empty cache, not an error *)
  (match Svc.Cache.load c' path with
  | Ok 0 -> ()
  | Ok n -> Alcotest.failf "missing file loaded %d entries" n
  | Error e -> Alcotest.failf "missing file: %s" (G.Error.to_string e));
  (* a malformed line reports its position, and since every line is
     parsed before any is added, the valid line before it is not loaded *)
  let oc = open_out path in
  output_string oc "{\"k\":\"a\",\"v\":1}\nnot json\n";
  close_out oc;
  let bad = Svc.Cache.create () in
  (match Svc.Cache.load bad path with
  | Error (`Invalid_input { G.Error.line = Some 2; _ }) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (G.Error.to_string e)
  | Ok _ -> Alcotest.fail "malformed line accepted");
  Alcotest.(check bool) "failed load adds nothing" true
    (Svc.Cache.peek bad "a" = None);
  Sys.remove path

let test_cache_warm_from_disk_lru () =
  (* satellite: persistence replay refreshes recency like a hit, so a
     warmed-from-disk cache evicts in true LRU order *)
  let path = Filename.temp_file "nxc-cache" ".jsonl" in
  let c = Svc.Cache.create () in
  fill c;
  (match Svc.Cache.save c path with
  | Ok n when n = cache_capacity -> ()
  | _ -> Alcotest.fail "save");
  let w = Svc.Cache.create () in
  (match Svc.Cache.load w path with
  | Ok n when n = cache_capacity -> ()
  | _ -> Alcotest.fail "load");
  (* replay order is the sorted key order (k0000 first); finding k0000
     makes k0001 the LRU entry, so the next insert must evict k0001,
     not k0000 *)
  ignore (Svc.Cache.find w (cache_key 0));
  Svc.Cache.add w "new" (J.Int (-1));
  Alcotest.(check bool) "k0000 survives the warm insert" true
    (Svc.Cache.peek w (cache_key 0) <> None);
  Alcotest.(check bool) "k0001 is the true LRU victim" true
    (Svc.Cache.peek w (cache_key 1) = None);
  (* re-loading over a warm cache refreshes recency too: every returning
     key evicts the next-oldest, until k4095 returns and evicts new *)
  (match Svc.Cache.load w path with
  | Ok n when n = cache_capacity -> ()
  | _ -> Alcotest.fail "reload");
  Alcotest.(check bool) "new was evicted when k4095 returned" true
    (Svc.Cache.peek w "new" = None);
  Sys.remove path

(* ---------------- sharded cache laws ------------------------------- *)

(* random op scripts over a small key alphabet *)
let shard_keys =
  [| "npn:0xabc+"; "npn:0xdef-"; "job:bist:4x4"; "job:yield:16"; "k4"; "k5";
     "a-rather-longer-key-6"; "k7" |]

type cache_op = Add of int * int | Find of int | Peek of int

let arb_cache_ops =
  let gen =
    QCheck.Gen.(
      list_size (int_bound 60)
        (map2
           (fun tag (k, v) ->
             let k = k mod Array.length shard_keys in
             match tag mod 3 with
             | 0 -> Add (k, v)
             | 1 -> Find k
             | _ -> Peek k)
           (int_bound 2)
           (pair nat (int_bound 100))))
  in
  let print ops =
    String.concat ";"
      (List.map
         (function
           | Add (k, v) -> Printf.sprintf "add %d %d" k v
           | Find k -> Printf.sprintf "find %d" k
           | Peek k -> Printf.sprintf "peek %d" k)
         ops)
  in
  QCheck.make ~print gen

let run_ops cache ops =
  (* observable trace: per-op result plus running counters *)
  List.map
    (fun op ->
      let r =
        match op with
        | Add (k, v) ->
            Svc.Cache.add cache shard_keys.(k) (J.Int v);
            None
        | Find k -> Svc.Cache.find cache shard_keys.(k)
        | Peek k -> Svc.Cache.peek cache shard_keys.(k)
      in
      (r, Svc.Cache.hits cache, Svc.Cache.misses cache))
    ops

let qcheck_shard_stable =
  Testutil.qtest ~count:50 "cache: shard routing is stable"
    (QCheck.int_range 1 8)
    (fun shards ->
      let c = Svc.Cache.create ~shards () in
      let c' = Svc.Cache.create ~shards () in
      (* the shard a key routes to, read off the per-shard miss counter
         a lookup of the (absent) key bumps; a single shard has no
         per-shard counters *)
      let routed cache key =
        if shards = 1 then (ignore (Svc.Cache.find cache key); Some 0)
        else begin
          let misses i =
            Nxc_obs.Metrics.counter_value
              (Nxc_obs.Metrics.counter
                 (Printf.sprintf "service.cache.shard%d.misses" i))
          in
          let before = Array.init shards misses in
          ignore (Svc.Cache.find cache key);
          let bumped =
            List.filter
              (fun i -> misses i <> before.(i))
              (List.init shards Fun.id)
          in
          match bumped with [ s ] -> Some s | _ -> None
        end
      in
      Array.for_all
        (fun key ->
          let s = routed c key in
          s <> None && s = routed c key && s = routed c' key)
        shard_keys)

let qcheck_shard_equiv =
  (* below eviction pressure, a sharded cache is observationally equal
     to the single-shard one: same values, same hit/miss sequence *)
  Testutil.qtest ~count:100 "cache: sharded = single-shard (no eviction)"
    (QCheck.pair arb_cache_ops (QCheck.int_range 2 8))
    (fun (ops, shards) ->
      let one = Svc.Cache.create () in
      let many = Svc.Cache.create ~shards () in
      run_ops one ops = run_ops many ops)

let qcheck_shard_persistence =
  (* the save file is byte-identical for every shard count, and load
     round-trips values across shard counts *)
  Testutil.qtest ~count:60 "cache: persistence across shard counts"
    (QCheck.triple arb_cache_ops (QCheck.int_range 1 8)
       (QCheck.int_range 1 8))
    (fun (ops, s1, s2) ->
      let save_bytes shards =
        let c = Svc.Cache.create ~shards () in
        ignore (run_ops c ops);
        let path = Filename.temp_file "nxc-shard" ".jsonl" in
        (match Svc.Cache.save c path with
        | Ok _ -> ()
        | Error _ -> QCheck.Test.fail_report "save failed");
        let ic = open_in_bin path in
        let len = in_channel_length ic in
        let bytes = really_input_string ic len in
        close_in ic;
        (c, path, bytes)
      in
      let c1, p1, b1 = save_bytes s1 in
      let _, p2, b2 = save_bytes s2 in
      let r = Svc.Cache.create ~shards:s2 () in
      (match Svc.Cache.load r p1 with
      | Ok _ -> ()
      | Error _ -> QCheck.Test.fail_report "load failed");
      let roundtrips =
        Array.for_all
          (fun key -> Svc.Cache.peek r key = Svc.Cache.peek c1 key)
          shard_keys
      in
      Sys.remove p1;
      Sys.remove p2;
      String.equal b1 b2 && roundtrips)

(* ---------------- job parsing -------------------------------------- *)

let test_job_parse_ok () =
  List.iter
    (fun line ->
      match Svc.Job.of_line line with
      | Ok j ->
          (* canonical re-serialization parses back to the same job *)
          let rt = Svc.Job.of_json (Svc.Job.to_json j) in
          Alcotest.(check bool)
            ("roundtrip " ^ line)
            true
            (rt = Ok j)
      | Error e -> Alcotest.failf "%s: %s" line (G.Error.to_string e))
    [ {|{"kind":"synth","expr":"x1x2 + x1'x2'"}|};
      {|{"id":"j1","kind":"synth","expr":"x1 ^ x2","budget_steps":500}|};
      {|{"kind":"flow","expr":"x1 ^ x2"}|};
      {|{"kind":"bist","rows":4,"cols":6}|};
      {|{"kind":"bism","n":24,"k":10,"scheme":"greedy"}|};
      {|{"kind":"yield","n":16,"trials":5}|} ]

let test_job_parse_bad () =
  List.iter
    (fun line ->
      match Svc.Job.of_line line with
      | Error (`Invalid_input _) -> ()
      | Error e -> Alcotest.failf "%s: wrong error %s" line (G.Error.to_string e)
      | Ok _ -> Alcotest.failf "accepted: %s" line)
    [ "not json";
      {|{"expr":"x1"}|};
      {|{"kind":"frobnicate"}|};
      {|{"kind":"synth"}|};
      {|{"kind":"synth","expr":"x1","bogus":1}|};
      {|{"kind":"bism","n":24,"k":10,"scheme":"psychic"}|};
      {|{"kind":"bist","rows":0,"cols":4}|};
      {|{"kind":"bist","rows":1,"cols":1}|};
      {|{"kind":"bism","n":4,"k":12,"scheme":"greedy"}|};
      {|{"kind":"bism","n":4,"k":5,"scheme":"sat"}|};
      {|{"kind":"yield","n":16,"density":1.5}|} ]

(* ---------------- engine ------------------------------------------- *)

let synth_job expr =
  { Svc.Job.id = None; budget_steps = None; spec = Svc.Job.Synth { expr; cover_backend = "bnb" } }

let envelope_strings outcomes =
  List.map (fun (o : Svc.Engine.outcome) -> J.to_string o.envelope) outcomes

(* a cache hit under a permuted/negated spelling must return a verified
   cover of the requested function with the class's product count *)
let test_engine_npn_hit () =
  let cache = Svc.Cache.create () in
  let run expr = Svc.Engine.run_jobs ~cache [ synth_job expr ] in
  let first = run "x1x2 + x2x3 + x1'x3'" in
  let h0 = Svc.Cache.hits cache in
  let second = run "x2x3 + x3x1 + x2'x1'" in
  Alcotest.(check int) "variant hits the class entry" (h0 + 1)
    (Svc.Cache.hits cache);
  let field name o =
    match o with
    | { Svc.Engine.envelope = J.Obj kvs; _ } -> (
        match List.assoc "result" kvs with
        | J.Obj r -> List.assoc name r
        | _ -> Alcotest.fail "no result object")
    | _ -> Alcotest.fail "envelope not an object"
  in
  Alcotest.(check bool)
    "hit re-verified against its own function" true
    (field "verified" (List.hd second) = J.Bool true);
  Alcotest.(check bool)
    "NP transforms preserve cover size" true
    (field "products" (List.hd first) = field "products" (List.hd second));
  (* and the returned cover is of the *variant*, not the base *)
  (match field "cover" (List.hd second) with
  | J.Str s ->
      let got = Parse.expr ~n:3 s in
      Alcotest.(check bool)
        "cover computes the requested function" true
        (Truth_table.equal (Boolfunc.table got)
           (Boolfunc.table (Parse.expr "x2x3 + x3x1 + x2'x1'")))
  | _ -> Alcotest.fail "cover not a string")

let qcheck_engine_npn_equiv =
  (* random 3-var function, random transform: the transformed spelling
     resolves from the base's cache entry to an equivalent cover *)
  (* output negation is deliberately excluded: the complement lives in
     the other phase slot of the same class (see Engine), so only NP
     variants — permuted/negated *inputs* — are guaranteed hits *)
  Testutil.qtest ~count:25 "engine: NP variants hit and stay equivalent"
    (QCheck.pair (Testutil.arb_table 3)
       (QCheck.make QCheck.Gen.(pair (int_bound 5) (int_bound 7))))
    (fun (f, (pi, mask)) ->
      (* full support: Parse.expr infers arity from the highest variable
         mentioned, so a vanishing x3 would change the parsed arity *)
      QCheck.assume (List.for_all (Tt.depends_on f) [ 0; 1; 2 ]);
      let t =
        { Npn.perm = List.nth (permutations 3) pi;
          input_neg = Array.init 3 (fun v -> (mask lsr v) land 1 = 1);
          output_neg = false }
      in
      let g = Npn.apply t f in
      let expr tt = Cover.to_string (Minimize.sop_table tt) in
      let cache = Svc.Cache.create () in
      let run e = List.hd (Svc.Engine.run_jobs ~cache [ synth_job e ]) in
      ignore (run (expr f));
      let h0 = Svc.Cache.hits cache in
      let out = run (expr g) in
      let cover =
        match out.Svc.Engine.envelope with
        | J.Obj kvs -> (
            match List.assoc "result" kvs with
            | J.Obj r -> (
                match List.assoc "cover" r with
                | J.Str s -> s
                | _ -> QCheck.Test.fail_report "cover not a string")
            | _ -> QCheck.Test.fail_report "no result")
        | _ -> QCheck.Test.fail_report "no envelope"
      in
      Svc.Cache.hits cache = h0 + 1
      && out.exit_code = 0
      && Tt.equal (Boolfunc.table (Parse.expr ~n:3 cover)) g)

let test_engine_determinism () =
  let lines =
    [ {|{"id":"a","kind":"synth","expr":"x1x2 + x1'x2'"}|};
      {|{"id":"b","kind":"synth","expr":"x1'x2 + x1x2'"}|};
      {|{"id":"c","kind":"bist","rows":4,"cols":4}|};
      {|{"id":"d","kind":"yield","n":12,"density":0.05,"seed":1,"trials":5}|};
      "boom" ]
  in
  let seq = envelope_strings (Svc.Engine.run_lines lines) in
  let par =
    Nxc_par.Pool.with_jobs 2 (fun pool ->
        envelope_strings (Svc.Engine.run_lines ?pool lines))
  in
  Alcotest.(check (list string)) "pool never changes envelopes" seq par;
  (* warm cache: identical bytes again *)
  let cache = Svc.Cache.create () in
  let cold = envelope_strings (Svc.Engine.run_lines ~cache lines) in
  let warm = envelope_strings (Svc.Engine.run_lines ~cache lines) in
  Alcotest.(check (list string)) "warm = cold" cold warm;
  Alcotest.(check (list string)) "cache never changes envelopes" seq cold;
  Alcotest.(check int) "bad line exits 3" 3
    (Svc.Engine.batch_exit (Svc.Engine.run_lines lines))

(* a bnb synth job names its covering backend, so the process-wide
   default (the CLI's --cover-backend) cannot change its envelope; this
   function's minimum covers differ between the two backends *)
let test_engine_backend_pinned () =
  let job = synth_job "x1x2 + x2x3 + x3x4 + x4x5 + x5x1 + x1'x3'x5'" in
  let bnb = envelope_strings (Svc.Engine.run_jobs [ job ]) in
  let sat =
    Fun.protect
      ~finally:(fun () -> Qm.set_cover_backend Qm.Bnb)
      (fun () ->
        Qm.set_cover_backend Qm.Sat;
        envelope_strings (Svc.Engine.run_jobs [ job ]))
  in
  Alcotest.(check (list string)) "global backend ignored" bnb sat

(* a batch with one leader computes it on the calling domain and lends
   the pool to its Monte-Carlo trials: they spread over the pool,
   and the envelope is the one a run without a pool gives *)
let test_engine_single_leader () =
  let tasks = Nxc_obs.Metrics.counter "par.tasks" in
  let trials = 12 in
  List.iter
    (fun line ->
      let job =
        match Svc.Job.of_line line with
        | Ok job -> job
        | Error e -> Alcotest.failf "%s: %s" line (G.Error.to_string e)
      in
      let seq = envelope_strings (Svc.Engine.run_jobs [ job ]) in
      Nxc_par.Pool.with_jobs 2 (fun pool ->
          let pool = Option.get pool in
          let t0 = Nxc_obs.Metrics.counter_value tasks in
          let par = envelope_strings (Svc.Engine.run_jobs ~pool [ job ]) in
          Alcotest.(check (list string)) line seq par;
          let dt = Nxc_obs.Metrics.counter_value tasks - t0 in
          if dt < trials then
            Alcotest.failf "%s: %d pool tasks for %d trials" line dt trials))
    [ Printf.sprintf
        {|{"kind":"bism","n":16,"k":8,"trials":%d,"scheme":"greedy"}|} trials;
      Printf.sprintf {|{"kind":"repair","rows":6,"cols":6,"trials":%d}|}
        trials ]

(* ---------------- stream ------------------------------------------- *)

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let stream_lines =
  [ {|{"id":"a","kind":"synth","expr":"x1x2 + x1'x2'"}|};
    {|{"id":"b","kind":"synth","expr":"x1'x2 + x1x2'"}|};
    {|{"id":"c","kind":"bist","rows":4,"cols":4}|};
    {|{"id":"a2","kind":"synth","expr":"x1x2 + x1'x2'"}|} (* repeat class *);
    "boom";
    {|{"id":"a","kind":"synth","expr":"x1x2 + x1'x2'"}|} (* exact repeat *) ]

let push_all stream lines =
  (* explicit sequencing: pushes strictly before the final drain *)
  let outs = List.concat_map (fun l -> Svc.Engine.Stream.push stream l) lines in
  outs @ Svc.Engine.Stream.flush stream

let test_stream_determinism () =
  (* streamed envelopes are byte-identical to the synchronous loop, in
     input order, for every window size — including memo-hit repeats *)
  let baseline =
    let cache = Svc.Cache.create () in
    envelope_strings
      (List.map (fun l -> Svc.Engine.run_line ~cache l) stream_lines)
  in
  List.iter
    (fun window ->
      let stream = Svc.Engine.Stream.create ~window () in
      let outs = push_all stream stream_lines in
      Alcotest.(check (list string))
        (Printf.sprintf "window %d = synchronous loop" window)
        baseline (envelope_strings outs))
    [ 1; 2; 3; 17 ];
  (* and under a pool, sharded like the CLI would *)
  Nxc_par.Pool.with_jobs 2 (fun pool ->
      let cache = Svc.Cache.create ~shards:2 () in
      let stream = Svc.Engine.Stream.create ?pool ~cache () in
      let outs = push_all stream stream_lines in
      Alcotest.(check (list string)) "pooled stream = synchronous loop"
        baseline (envelope_strings outs))

let test_stream_memo () =
  let stream = Svc.Engine.Stream.create ~window:2 () in
  let first = push_all stream [ List.hd stream_lines; List.hd stream_lines ] in
  Alcotest.(check int) "both answered" 2 (List.length first);
  Alcotest.(check bool) "second is a memo/cache hit" true
    ((List.nth first 1).Svc.Engine.cached);
  Alcotest.(check (list string)) "identical bytes"
    [ List.hd (envelope_strings first) ]
    [ List.nth (envelope_strings first) 1 ]

let test_stream_memo_eviction () =
  (* the memo holds the 1024 most recently used lines: after 1024
     distinct lines, re-using line 0 leaves line 1 as the victim of the
     1025th *)
  let line i = Printf.sprintf {|{"id":"m%d","kind":"bist","rows":2,"cols":2}|} i in
  let stream = Svc.Engine.Stream.create ~window:1 () in
  let counter name = Nxc_obs.Metrics.(counter_value (counter name)) in
  let hits0 = counter "service.stream.memo_hits"
  and misses0 = counter "service.stream.memo_misses" in
  let lines =
    List.init 1024 line @ [ line 0; line 1024; line 0; line 1 ]
  in
  let outs = push_all stream lines in
  Alcotest.(check int) "every line answered" (List.length lines)
    (List.length outs);
  Alcotest.(check int) "memo hits: line 0 twice" 2
    (counter "service.stream.memo_hits" - hits0);
  Alcotest.(check int) "memo misses: line 1 was evicted" 1026
    (counter "service.stream.memo_misses" - misses0)

let test_stream_admission () =
  (* a 0ms deadline deterministically rejects everything with the
     budget-exhaustion contract, immediately (nothing queued) *)
  let stream = Svc.Engine.Stream.create ~window:8 ~deadline_ms:0.0 () in
  List.iter
    (fun line ->
      match Svc.Engine.Stream.push stream line with
      | [ o ] ->
          Alcotest.(check int) "admission rejection exits 4" 4 o.exit_code;
          let s = J.to_string o.envelope in
          Alcotest.(check bool) "labelled admission" true
            (contains s "admission")
      | outs -> Alcotest.failf "expected 1 rejection, got %d" (List.length outs))
    stream_lines;
  Alcotest.(check (list string)) "drain is empty" []
    (envelope_strings (Svc.Engine.Stream.flush stream))

let test_stream_backpressure () =
  (* Fail-policy ambient budget: each admitted job costs one step; the
     third push is rejected with the budget's own error *)
  let b = G.Budget.create ~label:"serve" ~policy:G.Budget.Fail ~steps:2 () in
  G.Budget.with_current b (fun () ->
      let stream = Svc.Engine.Stream.create ~window:8 () in
      (match Svc.Engine.Stream.push stream (List.hd stream_lines) with
      | [] -> ()
      | _ -> Alcotest.fail "admitted job answered early");
      ignore (Svc.Engine.Stream.push stream (List.nth stream_lines 1));
      (* third admission trips the budget: the rejection is decided now
         but held behind the two queued jobs to preserve output order *)
      (match Svc.Engine.Stream.push stream (List.nth stream_lines 2) with
      | [] -> ()
      | _ -> Alcotest.fail "rejection jumped the queue");
      match Svc.Engine.Stream.flush stream with
      | [ _; _; o ] ->
          Alcotest.(check int) "budget rejection exits 4" 4 o.Svc.Engine.exit_code;
          Alcotest.(check bool) "carries the budget's own label" true
            (contains (J.to_string o.Svc.Engine.envelope) "serve")
      | outs -> Alcotest.failf "expected 3 outcomes, got %d" (List.length outs));
  (* Degrade-policy budget: the window collapses to 1 instead *)
  let b = G.Budget.create ~label:"serve" ~steps:1 () in
  G.Budget.with_current b (fun () ->
      let stream = Svc.Engine.Stream.create ~window:8 () in
      ignore (Svc.Engine.Stream.push stream (List.hd stream_lines));
      ignore (Svc.Engine.Stream.push stream (List.nth stream_lines 1));
      Alcotest.(check int) "window degraded to 1" 1
        (Svc.Engine.Stream.window stream))

let () =
  Alcotest.run "service"
    [ ( "npn",
        [ Alcotest.test_case "identity" `Quick test_npn_identity;
          Alcotest.test_case "num_transforms" `Quick test_npn_num_transforms;
          Testutil.qtest ~count:60 "all transforms share one key (n<=3)"
            (Testutil.arb_table_sized 3)
            (fun f -> npn_class_key_prop (Tt.n_vars f) f);
          Alcotest.test_case "all 768 transforms n=4" `Quick test_npn_class_n4;
          Alcotest.test_case "canonical witness" `Quick
            test_npn_canonical_transform;
          Alcotest.test_case "semi-canonical above limit" `Quick
            test_npn_semi_above_limit;
          Alcotest.test_case "reference transform, every n<=3 function"
            `Quick test_npn_reference_small;
          Testutil.qtest ~count:100 "reference transform (n=4)"
            (Testutil.arb_table 4) same_canonical;
          Testutil.qtest ~count:20 "reference transform (n=5)"
            (Testutil.arb_table 5) same_canonical;
          Alcotest.test_case "reference transform, symmetric n=5" `Quick
            test_npn_reference_symmetric;
          Alcotest.test_case "budget charge" `Quick test_npn_budget_charge ] );
      ( "covers",
        [ Testutil.qtest ~count:100 "cover_to_canon semantics"
            (arb_cover_transform 3) cover_semantics_prop;
          Testutil.qtest ~count:100 "cover roundtrip" (arb_cover_transform 4)
            cover_roundtrip_prop ] );
      ( "cache",
        [ Alcotest.test_case "lru eviction and counters" `Quick test_cache_lru;
          Alcotest.test_case "save/load" `Quick test_cache_save_load;
          Alcotest.test_case "warm-from-disk true LRU" `Quick
            test_cache_warm_from_disk_lru;
          qcheck_shard_stable;
          qcheck_shard_equiv;
          qcheck_shard_persistence ] );
      ( "job",
        [ Alcotest.test_case "valid specs" `Quick test_job_parse_ok;
          Alcotest.test_case "malformed specs" `Quick test_job_parse_bad ] );
      ( "engine",
        [ Alcotest.test_case "npn cache hit" `Quick test_engine_npn_hit;
          qcheck_engine_npn_equiv;
          Alcotest.test_case "determinism" `Quick test_engine_determinism;
          Alcotest.test_case "job backend beats the global default" `Quick
            test_engine_backend_pinned;
          Alcotest.test_case "single leader lends the pool" `Quick
            test_engine_single_leader ] );
      ( "stream",
        [ Alcotest.test_case "determinism vs synchronous loop" `Quick
            test_stream_determinism;
          Alcotest.test_case "response memo" `Quick test_stream_memo;
          Alcotest.test_case "memo evicts the least recently used line"
            `Quick test_stream_memo_eviction;
          Alcotest.test_case "deadline admission" `Quick test_stream_admission;
          Alcotest.test_case "budget backpressure" `Quick
            test_stream_backpressure ] ) ]
