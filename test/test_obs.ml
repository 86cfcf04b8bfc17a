(* Nxc_obs: spans, metrics, JSON round-trips, and the no-allocation
   guarantee of the disabled tracing path. *)

module Obs = Nxc_obs
module J = Nxc_obs.Json

(* ------------------------------------------------------------------ *)
(* Json                                                                *)
(* ------------------------------------------------------------------ *)

(* an integer field of a histogram in the metrics JSON dump *)
let hdr_field name field =
  let get k = function
    | J.Obj kvs -> (match List.assoc_opt k kvs with Some v -> v | None -> J.Null)
    | _ -> J.Null
  in
  match get field (get name (get "histograms" (Obs.Metrics.dump_json ()))) with
  | J.Int v -> v
  | _ -> Alcotest.failf "no %s.%s in the metrics dump" name field

let roundtrip v = J.of_string (J.to_string v)

let test_json_roundtrip () =
  let v =
    J.Obj
      [ ("a", J.Int 42);
        ("b", J.List [ J.Null; J.Bool true; J.Float 1.5 ]);
        ("s", J.Str "line\nquote\" backslash\\ tab\t \x01 end") ]
  in
  Alcotest.(check bool) "roundtrip" true (roundtrip v = v);
  Alcotest.(check bool)
    "member" true
    (J.member "a" v = Some (J.Int 42) && J.member "zz" v = None)

let test_json_non_finite () =
  Alcotest.(check string) "nan is null" "null" (J.to_string (J.Float nan));
  Alcotest.(check string)
    "inf is null" "null"
    (J.to_string (J.Float infinity))

let test_json_parse_errors () =
  let bad s =
    match J.of_string s with
    | exception J.Parse_error _ -> true
    | _ -> false
  in
  List.iter
    (fun s -> Alcotest.(check bool) (Printf.sprintf "reject %S" s) true (bad s))
    [ ""; "{"; "[1,]"; "{\"a\":1} trailing"; "'single'"; "01" ]

(* arbitrary JSON values: strings carry escapes and control bytes,
   objects and lists nest, floats stay finite (non-finite emit null by
   design and are covered separately above) *)
let gen_json =
  let open QCheck.Gen in
  let gen_str = string_size ~gen:(char_range '\x00' '\xff') (int_bound 12) in
  let finite_float =
    map (fun f -> if Float.is_finite f then f else 0.0) float
  in
  let leaf =
    oneof
      [ return J.Null;
        map (fun b -> J.Bool b) bool;
        map (fun i -> J.Int i) int;
        map (fun f -> J.Float f) finite_float;
        map (fun s -> J.Str s) gen_str ]
  in
  let dedup_keys kvs =
    let seen = Hashtbl.create 8 in
    List.filter
      (fun (k, _) ->
        if Hashtbl.mem seen k then false
        else begin
          Hashtbl.add seen k ();
          true
        end)
      kvs
  in
  sized
  @@ fix (fun self n ->
         if n <= 0 then leaf
         else
           frequency
             [ (2, leaf);
               (1, map (fun l -> J.List l) (list_size (int_bound 4) (self (n / 2))));
               ( 1,
                 map
                   (fun kvs -> J.Obj (dedup_keys kvs))
                   (list_size (int_bound 4) (pair gen_str (self (n / 2)))) ) ])

(* structural equality up to float printing: to_string emits floats via
   %.12g, so a parsed-back float may differ in the last couple of ulps *)
let rec json_eq a b =
  match (a, b) with
  | J.Float x, J.Float y ->
      abs_float (x -. y)
      <= 1e-9 *. Float.max 1.0 (Float.max (abs_float x) (abs_float y))
  | J.List xs, J.List ys ->
      List.length xs = List.length ys && List.for_all2 json_eq xs ys
  | J.Obj xs, J.Obj ys ->
      List.length xs = List.length ys
      && List.for_all2
           (fun (k1, v1) (k2, v2) -> k1 = k2 && json_eq v1 v2)
           xs ys
  | _ -> a = b

let qtest_json_roundtrip =
  Testutil.qtest ~count:500 "to_string |> of_string roundtrip"
    (QCheck.make ~print:J.to_string gen_json)
    (fun v -> json_eq v (roundtrip v))

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let test_counter_gauge () =
  Obs.Metrics.reset ();
  let c = Obs.Metrics.counter "test.counter" in
  Obs.Metrics.incr c;
  Obs.Metrics.add c 10;
  Alcotest.(check int) "counter" 11 (Obs.Metrics.counter_value c);
  let g = Obs.Metrics.gauge "test.gauge" in
  Obs.Metrics.set g 2.5;
  Alcotest.(check (float 0.0)) "gauge" 2.5 (Obs.Metrics.gauge_value g);
  (* same name, same instrument *)
  Obs.Metrics.incr (Obs.Metrics.counter "test.counter");
  Alcotest.(check int) "shared" 12 (Obs.Metrics.counter_value c);
  (* same name, different kind: rejected *)
  Alcotest.check_raises "kind clash"
    (Invalid_argument
       "Nxc_obs.Metrics: \"test.counter\" already registered as a non-gauge")
    (fun () -> ignore (Obs.Metrics.gauge "test.counter"))

let test_metrics_dump () =
  Obs.Metrics.reset ();
  let c = Obs.Metrics.counter "test.dump_counter" in
  Obs.Metrics.add c 7;
  let j = Obs.Metrics.dump_json () in
  (* dump_json emits parseable JSON that contains what we recorded *)
  let reparsed = J.of_string (J.to_string j) in
  (match J.member "counters" reparsed with
  | Some counters ->
      Alcotest.(check bool)
        "counter in dump" true
        (J.member "test.dump_counter" counters = Some (J.Int 7))
  | None -> Alcotest.fail "no counters key");
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool)
    "dump_text mentions it" true
    (contains (Obs.Metrics.dump_text ()) "test.dump_counter")

(* ------------------------------------------------------------------ *)
(* HDR histograms                                                      *)
(* ------------------------------------------------------------------ *)

let test_hdr_buckets () =
  (* values below 16 get exact single-value buckets *)
  for v = 0 to 15 do
    Alcotest.(check int)
      (Printf.sprintf "exact bucket %d" v)
      v (Obs.Metrics.hdr_bucket_of v);
    Alcotest.(check (pair int int))
      (Printf.sprintf "exact range %d" v)
      (v, v)
      (Obs.Metrics.hdr_bucket_range v)
  done;
  (* bucket ranges partition [0, max_int] with no gaps, every bound maps
     back to its own bucket, and the log-linear width bound holds *)
  for i = 1 to Obs.Metrics.hdr_num_buckets - 1 do
    let lo, hi = Obs.Metrics.hdr_bucket_range i in
    let _, prev_hi = Obs.Metrics.hdr_bucket_range (i - 1) in
    Alcotest.(check int) (Printf.sprintf "contiguous %d" i) (prev_hi + 1) lo;
    Alcotest.(check bool) (Printf.sprintf "ordered %d" i) true (hi >= lo);
    Alcotest.(check int)
      (Printf.sprintf "lo self %d" i)
      i (Obs.Metrics.hdr_bucket_of lo);
    Alcotest.(check int)
      (Printf.sprintf "hi self %d" i)
      i (Obs.Metrics.hdr_bucket_of hi);
    if lo >= 16 then
      Alcotest.(check bool)
        (Printf.sprintf "width bound %d" i)
        true
        (hi - lo + 1 <= lo / 16)
  done;
  let top = Obs.Metrics.hdr_num_buckets - 1 in
  Alcotest.(check int)
    "top bucket ends at max_int" max_int
    (snd (Obs.Metrics.hdr_bucket_range top));
  Alcotest.(check int)
    "bucket of max_int" top
    (Obs.Metrics.hdr_bucket_of max_int);
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Nxc_obs.Metrics.hdr_observe: negative value") (fun () ->
      Obs.Metrics.hdr_observe (Obs.Metrics.hdr "test.hdr_neg") (-1))

let test_hdr_quantile () =
  Obs.Metrics.reset ();
  let h = Obs.Metrics.hdr "test.hdr_q" in
  Alcotest.(check int) "empty quantile" 0 (Obs.Metrics.hdr_quantile h 0.5);
  Obs.Metrics.hdr_observe h 1234;
  Alcotest.(check int)
    "single sample, q=0" 1234
    (Obs.Metrics.hdr_quantile h 0.0);
  Alcotest.(check int)
    "single sample, q=0.99" 1234
    (Obs.Metrics.hdr_quantile h 0.99);
  (* a known distribution: every quantile carries <= 6.25% relative
     error and never underestimates *)
  Obs.Metrics.reset ();
  let h = Obs.Metrics.hdr "test.hdr_q" in
  let n = 1000 in
  let values = Array.init n (fun i -> (i + 1) * 17) in
  Array.iter (Obs.Metrics.hdr_observe h) values;
  Alcotest.(check int) "count" n (hdr_field "test.hdr_q" "count");
  Alcotest.(check int)
    "sum" (17 * n * (n + 1) / 2)
    (hdr_field "test.hdr_q" "sum");
  List.iter
    (fun q ->
      let rank = max 1 (int_of_float (ceil (q *. float_of_int n))) in
      let exact = values.(rank - 1) in
      let est = Obs.Metrics.hdr_quantile h q in
      Alcotest.(check bool)
        (Printf.sprintf "q=%.2f no underestimate" q)
        true (est >= exact);
      Alcotest.(check bool)
        (Printf.sprintf "q=%.2f within 6.25%%" q)
        true
        (float_of_int (est - exact) <= 0.0625 *. float_of_int exact))
    [ 0.5; 0.9; 0.95; 0.99; 1.0 ]

(* the merge law the pool relies on: observations recorded partly
   through a worker buffer come out identical to a sequential run *)
let qtest_hdr_merge =
  let nonneg = QCheck.Gen.map (fun i -> i land max_int) QCheck.Gen.int in
  let gen = QCheck.Gen.(pair (list_size (int_bound 50) nonneg) (list_size (int_bound 50) nonneg)) in
  Testutil.qtest ~count:100 "hdr merge = sequential observe"
    (QCheck.make
       ~print:(fun (a, b) ->
         Printf.sprintf "direct=[%s] buffered=[%s]"
           (String.concat ";" (List.map string_of_int a))
           (String.concat ";" (List.map string_of_int b)))
       gen)
    (fun (xs, ys) ->
      Obs.Metrics.reset ();
      let seq = Obs.Metrics.hdr "test.hdr_merge_seq" in
      List.iter (Obs.Metrics.hdr_observe seq) (xs @ ys);
      let par = Obs.Metrics.hdr "test.hdr_merge_par" in
      List.iter (Obs.Metrics.hdr_observe par) xs;
      let buf = Obs.Metrics.buffer () in
      Obs.Metrics.with_buffer buf (fun () ->
          let h = Obs.Metrics.hdr "test.hdr_merge_par" in
          List.iter (Obs.Metrics.hdr_observe h) ys);
      Obs.Metrics.merge buf;
      hdr_field "test.hdr_merge_seq" "count"
      = hdr_field "test.hdr_merge_par" "count"
      && hdr_field "test.hdr_merge_seq" "sum"
         = hdr_field "test.hdr_merge_par" "sum"
      && List.for_all
           (fun q ->
             Obs.Metrics.hdr_quantile seq q = Obs.Metrics.hdr_quantile par q)
           [ 0.0; 0.5; 0.9; 0.95; 0.99; 1.0 ])

(* ------------------------------------------------------------------ *)
(* Metric-namespace lint                                               *)
(* ------------------------------------------------------------------ *)

let test_metric_namespaces () =
  Obs.Metrics.reset ();
  (* exercise the engine across job kinds so the instruments of every
     subsystem it pulls in are registered, then lint each name against
     the documented <namespace>.<metric> scheme *)
  List.iter
    (fun line -> ignore (Nxc_service.Engine.run_line line))
    [ {|{"kind":"synth","expr":"x1x2 + x1'x2'"}|};
      {|{"kind":"flow","expr":"x1 ^ x2"}|};
      {|{"kind":"bist","rows":4,"cols":6}|};
      {|{"kind":"yield","n":16,"trials":3}|};
      {|not json|} ];
  let names = Obs.Metrics.names () in
  Alcotest.(check bool) "engine registered metrics" true (List.length names > 0);
  List.iter
    (fun n ->
      Alcotest.(check bool) (Printf.sprintf "valid %S" n) true
        (Obs.Metrics.valid_name n))
    names;
  (* the scheme itself rejects the obvious malformations *)
  List.iter
    (fun n ->
      Alcotest.(check bool) (Printf.sprintf "invalid %S" n) false
        (Obs.Metrics.valid_name n))
    [ ""; "service"; "service."; ".service"; "unknown_ns.metric";
      "Service.latency"; "service.Latency"; "service.la tency";
      "service.1abc"; "service..x"; "service.x." ]

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                     *)
(* ------------------------------------------------------------------ *)

let test_recorder_ring () =
  Obs.Recorder.clear ();
  let cap = 256 (* the ring's capacity *) in
  for i = 0 to cap + 4 do
    Obs.Recorder.record ~name:(Printf.sprintf "e%d" i) []
  done;
  let es = Obs.Recorder.entries () in
  Alcotest.(check int) "ring is full" cap (List.length es);
  Alcotest.(check string) "oldest evicted" "e5" (List.hd es).Obs.Recorder.name;
  Alcotest.(check string)
    "newest kept"
    (Printf.sprintf "e%d" (cap + 4))
    (List.nth es (cap - 1)).Obs.Recorder.name;
  let seqs = List.map (fun e -> e.Obs.Recorder.seq) es in
  Alcotest.(check bool)
    "seq strictly increasing" true
    (List.sort_uniq compare seqs = seqs);
  match J.of_string (J.to_string (Obs.Recorder.entry_json (List.hd es))) with
  | J.Obj _ as o ->
      Alcotest.(check bool)
        "entry_json carries the name" true
        (J.member "name" o = Some (J.Str "e5"))
  | _ -> Alcotest.fail "entry_json is not an object"

let test_recorder_collect_absorb () =
  Obs.Recorder.clear ();
  Obs.Recorder.record ~name:"outer" [];
  let r, inner =
    Obs.Recorder.collect (fun () ->
        Obs.Recorder.record ~kind:"span" ~name:"inner" [ ("k", J.Int 1) ];
        42)
  in
  Alcotest.(check int) "collect returns the value" 42 r;
  Alcotest.(check int) "one collected entry" 1 (List.length inner);
  Alcotest.(check (list string))
    "surrounding ring restored" [ "outer" ]
    (List.map (fun e -> e.Obs.Recorder.name) (Obs.Recorder.entries ()));
  Obs.Recorder.absorb inner;
  (match Obs.Recorder.entries () with
  | [ o; i ] ->
      Alcotest.(check string) "absorbed name" "inner" i.Obs.Recorder.name;
      Alcotest.(check string) "absorbed kind" "span" i.Obs.Recorder.kind;
      Alcotest.(check bool)
        "fresh seq" true
        (i.Obs.Recorder.seq > o.Obs.Recorder.seq);
      Alcotest.(check int)
        "timestamp kept"
        (List.hd inner).Obs.Recorder.t_ns
        i.Obs.Recorder.t_ns
  | es -> Alcotest.failf "expected 2 entries, got %d" (List.length es));
  (* a raising task folds its entries into the surrounding ring, so the
     forensics survive the failure *)
  Obs.Recorder.clear ();
  Obs.Recorder.record ~name:"before" [];
  (try
     ignore
       (Obs.Recorder.collect (fun () ->
            Obs.Recorder.record ~name:"doomed" [];
            failwith "boom"))
   with Failure _ -> ());
  Alcotest.(check (list string))
    "forensics survive" [ "before"; "doomed" ]
    (List.map (fun e -> e.Obs.Recorder.name) (Obs.Recorder.entries ()))

(* ------------------------------------------------------------------ *)
(* Structured log                                                      *)
(* ------------------------------------------------------------------ *)

let test_log_disabled_feeds_recorder () =
  Obs.Log.disable ();
  Obs.Recorder.clear ();
  Obs.Log.event ~level:Obs.Log.Debug ~name:"test.ev" [ ("x", J.Int 7) ];
  (* dump_flight without a destination is a no-op, not an error *)
  Obs.Log.dump_flight ~reason:"disabled";
  match Obs.Recorder.entries () with
  | [ e ] ->
      Alcotest.(check string) "recorded name" "test.ev" e.Obs.Recorder.name;
      Alcotest.(check bool)
        "level rides in data" true
        (List.assoc_opt "level" e.Obs.Recorder.data = Some (J.Str "debug"))
  | es -> Alcotest.failf "expected 1 ring entry, got %d" (List.length es)

let test_log_jsonl_and_flight_dump () =
  let path = Filename.temp_file "nxc_log" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Obs.Log.disable ();
      Sys.remove path)
  @@ fun () ->
  Obs.Recorder.clear ();
  Obs.Log.enable ~dest:path ();
  Obs.Log.event ~level:Obs.Log.Info ~name:"first" [];
  Obs.Log.event ~level:Obs.Log.Error ~name:"kept" [ ("job", J.Str "j1") ];
  Obs.Log.dump_flight ~reason:"unit test";
  Obs.Log.disable ();
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  let objs = List.map J.of_string (List.rev !lines) in
  (* both events + dump header + the ring's two entries *)
  Alcotest.(check int) "line count" 5 (List.length objs);
  let ev name o = J.member "event" o = Some (J.Str name) in
  Alcotest.(check bool)
    "info event written" true
    (List.exists
       (fun o -> ev "first" o && J.member "level" o = Some (J.Str "info"))
       objs);
  (match List.find_opt (ev "kept") objs with
  | Some o ->
      Alcotest.(check bool)
        "level field" true
        (J.member "level" o = Some (J.Str "error"));
      Alcotest.(check bool)
        "data inlined" true
        (J.member "job" o = Some (J.Str "j1"));
      Alcotest.(check bool)
        "timestamped" true
        (match J.member "t_ns" o with Some (J.Int _) -> true | _ -> false)
  | None -> Alcotest.fail "kept event not written");
  (match List.find_opt (ev "flight.dump") objs with
  | Some o ->
      Alcotest.(check bool)
        "dump reason" true
        (J.member "reason" o = Some (J.Str "unit test"));
      Alcotest.(check bool)
        "dump entry count" true
        (J.member "entries" o = Some (J.Int 2))
  | None -> Alcotest.fail "no flight.dump header");
  let ring_names =
    List.filter_map
      (fun o ->
        match J.member "name" o with Some (J.Str n) -> Some n | _ -> None)
      objs
  in
  Alcotest.(check (list string))
    "ring entries dumped oldest first" [ "first"; "kept" ] ring_names

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let with_tracing f =
  Obs.Span.enable ();
  Obs.Span.reset ();
  Fun.protect ~finally:Obs.Span.disable f

let test_span_nesting () =
  with_tracing @@ fun () ->
  Obs.Span.with_ ~name:"outer" (fun () ->
      Obs.Span.with_ ~name:"inner_a" (fun () -> ());
      Obs.Span.with_ ~name:"inner_b" (fun () -> ()));
  let spans = Obs.Span.completed () in
  Alcotest.(check int) "three spans" 3 (List.length spans);
  let by_name n = List.find (fun s -> s.Obs.Span.name = n) spans in
  let outer = by_name "outer" in
  let a = by_name "inner_a" and b = by_name "inner_b" in
  Alcotest.(check (option int)) "outer is root" None outer.Obs.Span.parent;
  Alcotest.(check (option int))
    "a under outer"
    (Some outer.Obs.Span.id)
    a.Obs.Span.parent;
  Alcotest.(check (option int))
    "b under outer"
    (Some outer.Obs.Span.id)
    b.Obs.Span.parent;
  Alcotest.(check int) "outer depth" 0 outer.Obs.Span.depth;
  Alcotest.(check int) "inner depth" 1 a.Obs.Span.depth;
  (* children finish before the parent; ids are in start order *)
  (match List.map (fun s -> s.Obs.Span.name) spans with
  | [ "inner_a"; "inner_b"; "outer" ] -> ()
  | other ->
      Alcotest.failf "unexpected finish order: %s" (String.concat "," other));
  Alcotest.(check bool) "start order" true (a.Obs.Span.id < b.Obs.Span.id);
  Alcotest.(check bool)
    "parent spans child" true
    (outer.Obs.Span.dur_ns >= a.Obs.Span.dur_ns)

let test_span_exception_safety () =
  with_tracing @@ fun () ->
  (try
     Obs.Span.with_ ~name:"outer" (fun () ->
         Obs.Span.with_ ~name:"inner" (fun () -> failwith "boom"))
   with Failure _ -> ());
  Alcotest.(check int)
    "both spans closed" 2
    (List.length (Obs.Span.completed ()))

let test_span_export_jsonl () =
  with_tracing @@ fun () ->
  Obs.Span.with_
    ~attrs:(fun () -> [ ("n", J.Int 3) ])
    ~name:"jsonl_root"
    (fun () -> Obs.Span.with_ ~name:"jsonl_child" (fun () -> ()));
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Obs.Span.export_jsonl ppf;
  Format.pp_print_flush ppf ();
  let lines =
    String.split_on_char '\n' (Buffer.contents buf)
    |> List.filter (fun l -> String.trim l <> "")
  in
  Alcotest.(check int) "one line per span" 2 (List.length lines);
  List.iter
    (fun line ->
      match J.of_string line with
      | J.Obj _ -> ()
      | _ -> Alcotest.fail "jsonl line is not an object"
      | exception J.Parse_error msg ->
          Alcotest.failf "malformed jsonl line %S: %s" line msg)
    lines;
  let root =
    List.find
      (fun l -> J.member "name" (J.of_string l) = Some (J.Str "jsonl_root"))
      lines
  in
  match J.member "attrs" (J.of_string root) with
  | Some attrs ->
      Alcotest.(check bool)
        "attrs survive" true
        (J.member "n" attrs = Some (J.Int 3))
  | None -> Alcotest.fail "root span lost its attrs"

let test_span_export_chrome () =
  with_tracing @@ fun () ->
  Obs.Span.with_ ~name:"chrome_root" (fun () ->
      Obs.Span.with_ ~name:"chrome_child" (fun () -> ()));
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Obs.Span.export_chrome ppf;
  Format.pp_print_flush ppf ();
  match J.of_string (Buffer.contents buf) with
  | J.List events ->
      Alcotest.(check int) "one event per span" 2 (List.length events);
      List.iter
        (fun e ->
          Alcotest.(check bool)
            "complete event" true
            (J.member "ph" e = Some (J.Str "X"));
          Alcotest.(check bool)
            "has ts and dur" true
            (J.member "ts" e <> None && J.member "dur" e <> None))
        events
  | _ -> Alcotest.fail "chrome export is not a JSON array"

(* ------------------------------------------------------------------ *)
(* Disabled-path allocation guarantee                                  *)
(* ------------------------------------------------------------------ *)

let minor_words_of f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* closures hoisted so the loop below performs zero allocation itself;
   what remains measurable is with_'s own disabled path *)
let hot_acc = ref 0
let hot_attrs () = [ ("i", J.Int 1) ]
let hot_attrs_opt = Some hot_attrs
let hot_body () = incr hot_acc

let test_disabled_span_no_alloc () =
  Obs.Span.disable ();
  let body () =
    for _ = 1 to 100 do
      Obs.Span.with_ ?attrs:hot_attrs_opt ~name:"hot" hot_body
    done
  in
  body ();
  (* warmed up: the disabled path must not allocate at all *)
  Alcotest.(check (float 0.0)) "no minor allocation" 0.0 (minor_words_of body);
  Alcotest.(check bool) "side effect ran" true (!hot_acc > 0)

let test_synth_fast_path_unaffected () =
  (* NANOXCOMP_TRACE unset in the test runner: synthesize must not
     record any spans, and metrics alone must keep counting *)
  Obs.Span.disable ();
  Obs.Span.reset ();
  Obs.Metrics.reset ();
  let f = Nxc_logic.Parse.expr "x1x2 + x1'x2'" in
  let impl = Nxc_core.Synth.synthesize f in
  Alcotest.(check bool) "verifies" true (Nxc_core.Synth.verify impl);
  Alcotest.(check int) "no spans recorded" 0
    (List.length (Obs.Span.completed ()));
  Alcotest.(check bool)
    "metrics still count" true
    (Obs.Metrics.counter_value (Obs.Metrics.counter "synth.functions") > 0);
  (* with the null sink, synthesize allocates the same amount on every
     run: the disabled instrumentation contributes exactly nothing *)
  let words_run2 = minor_words_of (fun () -> ignore (Nxc_core.Synth.synthesize f)) in
  let words_run3 = minor_words_of (fun () -> ignore (Nxc_core.Synth.synthesize f)) in
  Alcotest.(check (float 0.0))
    "steady-state allocation" words_run2 words_run3

let () =
  Alcotest.run "obs"
    [ ( "json",
        [ Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "non-finite floats" `Quick test_json_non_finite;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          qtest_json_roundtrip ] );
      ( "metrics",
        [ Alcotest.test_case "counter+gauge" `Quick test_counter_gauge;
          Alcotest.test_case "hdr buckets" `Quick test_hdr_buckets;
          Alcotest.test_case "hdr quantile" `Quick test_hdr_quantile;
          qtest_hdr_merge;
          Alcotest.test_case "namespace lint" `Quick test_metric_namespaces;
          Alcotest.test_case "dump" `Quick test_metrics_dump ] );
      ( "recorder",
        [ Alcotest.test_case "ring eviction" `Quick test_recorder_ring;
          Alcotest.test_case "collect/absorb" `Quick
            test_recorder_collect_absorb ] );
      ( "log",
        [ Alcotest.test_case "disabled still feeds recorder" `Quick
            test_log_disabled_feeds_recorder;
          Alcotest.test_case "jsonl + flight dump" `Quick
            test_log_jsonl_and_flight_dump ] );
      ( "span",
        [ Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "exception safety" `Quick
            test_span_exception_safety;
          Alcotest.test_case "jsonl export" `Quick test_span_export_jsonl;
          Alcotest.test_case "chrome export" `Quick test_span_export_chrome ] );
      ( "overhead",
        [ Alcotest.test_case "disabled span allocates nothing" `Quick
            test_disabled_span_no_alloc;
          Alcotest.test_case "synth fast path" `Quick
            test_synth_fast_path_unaffected ] ) ]
