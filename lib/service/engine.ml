(* Job engine: sequential planning + cache resolution on the calling
   domain, parallel computation of cache misses on the pool.

   The cold and warm paths share one rendering function per kind (the
   leader computes the *cache value*, then renders it exactly like a
   hit would), so envelopes are byte-identical whether they were
   computed, deduplicated within the batch, or served from a warm
   on-disk cache. *)

open Nxc_logic
module J = Nxc_obs.Json
module Error = Nxc_guard.Error
module Budget = Nxc_guard.Budget
module R = Nxc_reliability
module C = Nxc_core

let m_jobs = Nxc_obs.Metrics.counter "service.jobs"
let m_errors = Nxc_obs.Metrics.counter "service.errors"

(* Per-job and per-stage latency distributions, in nanoseconds.  HDR
   instruments so stats/serve can answer with p50/p95/p99.  Stage
   nesting: [render] includes the cache-hit [verify] re-check; [job] is
   the whole sequential resolution of one job (in batch mode a pooled
   leader's compute runs on a worker and is recorded under [compute]
   only, so [job] stays comparable across --jobs N). *)
let m_lat_job = Nxc_obs.Metrics.hdr "service.latency.job"
let m_lat_parse = Nxc_obs.Metrics.hdr "service.latency.parse"
let m_lat_key = Nxc_obs.Metrics.hdr "service.latency.key"
let m_lat_compute = Nxc_obs.Metrics.hdr "service.latency.compute"
let m_lat_verify = Nxc_obs.Metrics.hdr "service.latency.verify"
let m_lat_render = Nxc_obs.Metrics.hdr "service.latency.render"

let timed h f =
  let t0 = Nxc_obs.Clock.now_ns () in
  let r = f () in
  Nxc_obs.Metrics.hdr_observe h (Nxc_obs.Clock.now_ns () - t0);
  r

type outcome = { envelope : J.t; exit_code : int; cached : bool }

(* a planned job: either dead on arrival, or keyed with a way to
   compute the cache value and a way to render a value into the result
   payload (plus its exit-code equivalent).  [compute] hands its pool
   argument to the Monte-Carlo trial loops; it receives a pool only
   when it runs on the calling domain, since a pool runs one batch at
   a time. *)
type keyed = {
  key : string;
  compute : Nxc_par.Pool.t option -> (J.t, Error.t) result;
  render : J.t -> (J.t * int, Error.t) result;
}

type plan = Bad of Error.t | Keyed of keyed

let with_job_budget (job : Job.t) f =
  match job.Job.budget_steps with
  | Some steps ->
      let b = Budget.create ~label:"job" ~steps () in
      Budget.with_current b f
  | None -> f ()

(* ------------------------------------------------------------------ *)
(* synth jobs: NPN-keyed cover cache                                   *)
(* ------------------------------------------------------------------ *)

let cube_to_chars n cube =
  String.init n (fun i ->
      match Cube.polarity_of cube i with
      | Some Cube.Pos -> '1'
      | Some Cube.Neg -> '0'
      | None -> '-')

let cube_of_chars s =
  let n = String.length s in
  let lits = ref [] in
  String.iteri
    (fun i c ->
      match c with
      | '1' -> lits := (i, Cube.Pos) :: !lits
      | '0' -> lits := (i, Cube.Neg) :: !lits
      | '-' -> ()
      | _ -> failwith "bad cube char")
    s;
  Cube.of_literals n !lits

let cover_to_json c =
  J.List (List.map (fun cube -> J.Str (cube_to_chars (Cover.n_vars c) cube)) (Cover.cubes c))

let cover_of_json n = function
  | J.List cubes ->
      Cover.make n
        (List.map
           (function
             | J.Str s when String.length s = n -> cube_of_chars s
             | _ -> failwith "bad cube")
           cubes)
  | _ -> failwith "bad cover"

let corrupt () = Error (Error.internal "corrupt cache entry for synth job")

let plan_synth (job : Job.t) expr cover_backend =
  match Parse.expr_result expr with
  | Error e -> Bad e
  | Ok f ->
      let n = Boolfunc.n_vars f in
      let tr, canon = Npn.canonical (Boolfunc.table f) in
      let phase = if tr.Npn.output_neg then "-" else "+" in
      let budget_tag =
        match job.Job.budget_steps with
        | Some b -> ":b" ^ string_of_int b
        | None -> ""
      in
      (* both backends find a minimum cover, but not necessarily the
         same one — keep their cache entries apart *)
      let backend, backend_tag =
        match cover_backend with
        | "sat" -> (Qm.Sat, ":sat")
        | _ -> (Qm.Bnb, "")
      in
      let key = "npn:" ^ Npn.table_key canon ^ phase ^ budget_tag ^ backend_tag in
      let compute _pool =
        with_job_budget job @@ fun () ->
        match
          ( Minimize.sop_result ~cover_backend:backend f,
            Minimize.sop_result ~cover_backend:backend (Boolfunc.dual f) )
        with
        | Ok c, Ok d ->
            Ok
              (J.Obj
                 [ ("n", J.Int n);
                   ("cover", cover_to_json (Npn.cover_to_canon tr c.Minimize.cover));
                   ("dual", cover_to_json (Npn.cover_to_canon tr d.Minimize.cover));
                   ("degraded", J.Bool (c.Minimize.degraded || d.Minimize.degraded)) ]
              )
        | Error e, _ | _, Error e -> Error e
      in
      let render value =
        match
          ( J.member "cover" value, J.member "dual" value,
            J.member "degraded" value )
        with
        | Some cj, Some dj, Some (J.Bool degraded) -> (
            match (cover_of_json n cj, cover_of_json n dj) with
            | exception _ -> corrupt ()
            | canon_cover, canon_dual ->
                let cover = Npn.cover_of_canon tr canon_cover in
                let dual = Npn.cover_of_canon tr canon_dual in
                if
                  not
                    (timed m_lat_verify (fun () ->
                         Minimize.verify cover f
                         && Minimize.verify dual (Boolfunc.dual f)))
                then corrupt ()
                else
                  let p = Cover.num_cubes cover in
                  let pd = Cover.num_cubes dual in
                  let lits = List.length (Cover.distinct_literals cover) in
                  let dims rows cols =
                    J.Obj [ ("rows", J.Int rows); ("cols", J.Int cols) ]
                  in
                  Ok
                    ( J.Obj
                        [ ("n", J.Int n);
                          ("products", J.Int p);
                          ("dual_products", J.Int pd);
                          ("distinct_literals", J.Int lits);
                          ("cover", J.Str (Cover.to_string cover));
                          (* the paper's Fig. 3 / Fig. 5 size formulas *)
                          ("diode", dims p (lits + 1));
                          ("fet", dims lits (p + pd));
                          ("lattice", dims pd p);
                          ("degraded", J.Bool degraded);
                          ("verified", J.Bool true) ],
                      0 ))
        | _ -> corrupt ()
      in
      Keyed { key; compute; render }

(* ------------------------------------------------------------------ *)
(* seeded simulation jobs: whole payload cached under the spec key     *)
(* ------------------------------------------------------------------ *)

let scheme_of_string = function
  | "blind" -> R.Bism.Blind
  | "greedy" -> R.Bism.Greedy
  | _ -> R.Bism.Hybrid 10

let plan_sim (job : Job.t) compute_payload ~exit_of =
  let compute pool = with_job_budget job (fun () -> compute_payload pool) in
  let render value = Ok (value, exit_of value) in
  Keyed { key = Job.cache_key job; compute; render }

let exit_zero _ = 0

let plan_flow job expr n density seed =
  match Parse.expr_result expr with
  | Error e -> Bad e
  | Ok f ->
      plan_sim job
        (fun _pool ->
          let chip =
            R.Defect.generate (R.Rng.create seed) ~rows:n ~cols:n
              (R.Defect.uniform density)
          in
          match C.Flow.run_result (R.Rng.create (seed + 1)) ~chip f with
          | Error e -> Error e
          | Ok r ->
              let lattice = C.Synth.best_lattice r.C.Flow.impl in
              Ok
                (J.Obj
                   [ ("mapped", J.Bool r.C.Flow.bism.R.Bism.success);
                     ("functional", J.Bool r.C.Flow.functional);
                     ( "lattice",
                       J.Obj
                         [ ("rows", J.Int (Nxc_lattice.Lattice.rows lattice));
                           ("cols", J.Int (Nxc_lattice.Lattice.cols lattice)) ]
                     );
                     ( "defect_pct",
                       J.Float (100.0 *. R.Defect.actual_density chip) ) ]))
        ~exit_of:(fun value ->
          match J.member "functional" value with
          | Some (J.Bool true) -> 0
          | _ -> 5)

let plan_bist job rows cols =
  plan_sim job
    (fun _pool ->
      let plan = R.Bist.plan ~rows ~cols in
      let universe = R.Fault_model.universe ~rows ~cols in
      let cov, _ = R.Bist.coverage plan universe in
      Ok
        (J.Obj
           [ ("configs", J.Int (R.Bist.num_configs plan));
             ("group_configs", J.Int (R.Bisd.num_group_configs plan));
             ("vectors", J.Int (R.Bist.num_vectors plan));
             ("faults", J.Int (List.length universe));
             ("coverage_pct", J.Float (100.0 *. cov)) ]))
    ~exit_of:exit_zero

let plan_bism job n k density seed trials scheme =
  plan_sim job
    (fun pool ->
      if scheme = "sat" then
        let mc =
          R.Sat_assign.monte_carlo ?pool (R.Rng.create seed) ~trials ~n
            ~profile:(R.Defect.uniform density)
            ~k_rows:k ~k_cols:k
        in
        Ok
          (J.Obj
             [ ("mapped", J.Int mc.R.Sat_assign.sa_mapped);
               ("trials", J.Int trials);
               ("unmappable", J.Int mc.R.Sat_assign.sa_unmappable);
               ("degraded", J.Int mc.R.Sat_assign.sa_degraded) ])
      else
        let mc, _ =
          R.Bism.monte_carlo ?pool (R.Rng.create seed) (scheme_of_string scheme)
            ~trials ~n
            ~profile:(R.Defect.uniform density)
            ~k_rows:k ~k_cols:k ~max_configs:1000
        in
        Ok
          (J.Obj
             [ ("mapped", J.Int mc.R.Bism.mc_mapped);
               ("trials", J.Int trials);
               ("avg_configs", J.Float mc.R.Bism.mc_avg_configs) ]))
    ~exit_of:exit_zero

let plan_yield job n density seed trials =
  plan_sim job
    (fun pool ->
      let profile = R.Defect.uniform density in
      let mean =
        R.Yield_model.expected_max_k ?pool (R.Rng.create seed) ~trials ~n
          ~profile
      in
      let thresholds = [ ("k_at_50", 0.5); ("k_at_90", 0.9); ("k_at_99", 0.99) ] in
      let ks =
        R.Yield_model.guaranteed_ks ?pool
          (R.Rng.create (seed + 1))
          ~trials ~n ~profile ~min_yields:(List.map snd thresholds)
      in
      Ok
        (J.Obj
           (("mean_max_k", J.Float mean)
           :: List.map2 (fun (name, _) k -> (name, J.Int k)) thresholds ks)))
    ~exit_of:exit_zero

let repair_mode_of_string = function
  | "greedy" -> R.Bira.Greedy
  | _ -> R.Bira.Exact

let plan_repair job rows cols spare_rows spare_cols density seed trials mode =
  plan_sim job
    (fun pool ->
      let mc, _ =
        R.Bira.monte_carlo ?pool (R.Rng.create seed)
          ~mode:(repair_mode_of_string mode) ~trials ~rows ~cols ~spare_rows
          ~spare_cols
          ~profile:(R.Defect.uniform density)
      in
      let overhead =
        Nxc_crossbar.Metrics.spare_overhead ~rows ~cols ~spare_rows ~spare_cols
      in
      Ok
        (J.Obj
           [ ("repaired", J.Int mc.R.Bira.mc_repaired);
             ("trials", J.Int trials);
             ("avg_spares", J.Float mc.R.Bira.mc_avg_spares);
             ("must_lines", J.Int mc.R.Bira.mc_must_lines);
             ("degraded_trials", J.Int mc.R.Bira.mc_degraded);
             ( "area_overhead",
               J.Float overhead.Nxc_crossbar.Metrics.area_overhead ) ]))
    ~exit_of:exit_zero

let plan (job : Job.t) =
  match job.Job.spec with
  | Job.Synth { expr; cover_backend } -> plan_synth job expr cover_backend
  | Job.Flow { expr; n; density; seed } -> plan_flow job expr n density seed
  | Job.Bist { rows; cols } -> plan_bist job rows cols
  | Job.Bism { n; k; density; seed; trials; scheme } ->
      plan_bism job n k density seed trials scheme
  | Job.Yield { n; density; seed; trials } -> plan_yield job n density seed trials
  | Job.Repair { rows; cols; spare_rows; spare_cols; density; seed; trials;
                 mode } ->
      plan_repair job rows cols spare_rows spare_cols density seed trials mode

(* ------------------------------------------------------------------ *)
(* envelopes                                                           *)
(* ------------------------------------------------------------------ *)

let id_json = function Some i -> J.Str i | None -> J.Null

let ok_envelope ?id ~kind (result, exit_code) ~cached =
  Nxc_obs.Metrics.incr m_jobs;
  Nxc_obs.Log.event ~level:Nxc_obs.Log.Debug ~name:"service.job"
    [ ("id", id_json id); ("kind", J.Str kind); ("exit", J.Int exit_code);
      ("cached", J.Bool cached) ];
  { envelope =
      J.Obj
        [ ("id", id_json id); ("kind", J.Str kind); ("status", J.Str "ok");
          ("exit", J.Int exit_code); ("result", result) ];
    exit_code;
    cached }

let error_envelope ?id ?kind e =
  Nxc_obs.Metrics.incr m_jobs;
  Nxc_obs.Metrics.incr m_errors;
  Error.count e;
  let exit_code = Error.exit_code e in
  Nxc_obs.Log.event ~level:Nxc_obs.Log.Error ~name:"service.error"
    [ ("id", id_json id);
      ("kind", match kind with Some k -> J.Str k | None -> J.Null);
      ("exit", J.Int exit_code);
      ("error", J.Str (Error.to_string e)) ];
  { envelope =
      J.Obj
        [ ("id", id_json id);
          ("kind", match kind with Some k -> J.Str k | None -> J.Null);
          ("status", J.Str "error"); ("exit", J.Int exit_code);
          ("error", J.Str (Error.to_string e)) ];
    exit_code;
    cached = false }

let render_or_error ?id ~kind keyed value ~cached =
  match timed m_lat_render (fun () -> keyed.render value) with
  | Ok rendered -> ok_envelope ?id ~kind rendered ~cached
  | Error e -> error_envelope ?id ~kind e

(* ------------------------------------------------------------------ *)
(* drivers                                                             *)
(* ------------------------------------------------------------------ *)

(* tags produced by the sequential planning pass, in job order;
   [prep_ns] is what parsing + keying the job cost, folded into the
   job's end-to-end latency at resolution time *)
type tag =
  | TBad of Job.t option * Error.t
  | TLead of Job.t * keyed
  | TFollow of Job.t * keyed

type tagged = { prep_ns : int; tag : tag }

let compute_value ?pool (job : Job.t) keyed =
  Nxc_obs.Span.with_ ~name:"service.compute"
    ~attrs:(fun () -> [ ("kind", J.Str (Job.kind job)) ])
    (fun () -> timed m_lat_compute (fun () -> keyed.compute pool))

let resolve_sequential cache (job : Job.t) keyed =
  let id = job.Job.id and kind = Job.kind job in
  match Cache.find cache keyed.key with
  | Some value -> render_or_error ?id ~kind keyed value ~cached:true
  | None -> (
      match compute_value job keyed with
      | Ok value ->
          Cache.add cache keyed.key value;
          render_or_error ?id ~kind keyed value ~cached:false
      | Error e -> error_envelope ?id ~kind e)

(* resolution of one job after the sequential cache pass: either its
   error is already decided, or a cache value awaits rendering *)
type rstate =
  | RErr of Job.t option * Error.t
  | RVal of Job.t * keyed * J.t * bool  (** cached? *)

type resolved = { r_prep_ns : int; r_state : rstate }

let run_tagged ?pool ?cache tags =
  let cache = match cache with Some c -> c | None -> Cache.create () in
  Nxc_obs.Span.with_ ~name:"service.batch" @@ fun () ->
  (* second pass: mark the first uncached job of each key a leader *)
  let seen = Hashtbl.create 16 in
  let tags =
    List.map
      (fun t ->
        match t.tag with
        | TLead (job, k) | TFollow (job, k) ->
            if Cache.peek cache k.key <> None || Hashtbl.mem seen k.key then
              { t with tag = TFollow (job, k) }
            else begin
              Hashtbl.add seen k.key ();
              { t with tag = TLead (job, k) }
            end
        | TBad _ -> t)
      tags
  in
  let leaders =
    List.filter_map
      (fun t -> match t.tag with TLead (job, k) -> Some (job, k) | _ -> None)
      tags
  in
  let computed =
    match leaders with
    | [ (job, k) ] ->
        (* a lone leader computes on the calling domain and lends the
           pool to its Monte-Carlo trials; a job with its own step
           budget keeps its trials sequential, so that budget winds
           down the same way at every --jobs *)
        let pool = if job.Job.budget_steps = None then pool else None in
        [ compute_value ?pool job k ]
    | _ -> Nxc_par.Pool.map ?pool (fun (job, k) -> compute_value job k) leaders
  in
  (* cache pass, on the calling domain, in job order: all cache reads
     and writes happen here, so hit/miss assignment is deterministic *)
  let remaining = ref computed in
  let next () =
    match !remaining with
    | r :: rest ->
        remaining := rest;
        r
    | [] -> assert false
  in
  let resolved =
    List.map
      (fun { prep_ns; tag } ->
        let t0 = Nxc_obs.Clock.now_ns () in
        let st =
          match tag with
          | TBad (job, e) -> RErr (job, e)
          | TLead (job, k) -> (
              ignore (Cache.find cache k.key : J.t option) (* counts the miss *);
              match next () with
              | Ok value ->
                  Cache.add cache k.key value;
                  RVal (job, k, value, false)
              | Error e -> RErr (Some job, e))
          | TFollow (job, k) -> (
              match Cache.find cache k.key with
              | Some value -> RVal (job, k, value, true)
              | None -> (
                  (* its leader failed to populate the key: compute here
                     on the calling domain, like run_line would *)
                  match compute_value job k with
                  | Ok value ->
                      Cache.add cache k.key value;
                      RVal (job, k, value, false)
                  | Error e -> RErr (Some job, e)))
        in
        { r_prep_ns = prep_ns + (Nxc_obs.Clock.now_ns () - t0); r_state = st })
      tags
  in
  (* render pass, pooled: rendering is a pure function of the cache
     value and the request's own transform (it re-verifies covers), so
     followers render in parallel without touching the envelope *)
  let rendered =
    Nxc_par.Pool.map ?pool
      (fun r ->
        match r.r_state with
        | RErr _ -> (r, None, 0)
        | RVal (_, k, value, _) ->
            let t0 = Nxc_obs.Clock.now_ns () in
            let res = timed m_lat_render (fun () -> k.render value) in
            (r, Some res, Nxc_obs.Clock.now_ns () - t0))
      resolved
  in
  (* envelope pass, on the calling domain, in job order: counters and
     log events fire in output order *)
  List.map
    (fun (r, res, render_ns) ->
      let t0 = Nxc_obs.Clock.now_ns () in
      let out =
        match (r.r_state, res) with
        | RErr (job, e), _ ->
            error_envelope
              ?id:(Option.bind job (fun j -> j.Job.id))
              ?kind:(Option.map Job.kind job)
              e
        | RVal (job, _, _, cached), Some (Ok rendered) ->
            ok_envelope ?id:job.Job.id ~kind:(Job.kind job) rendered ~cached
        | RVal (job, _, _, _), Some (Error e) ->
            error_envelope ?id:job.Job.id ~kind:(Job.kind job) e
        | RVal _, None -> assert false
      in
      Nxc_obs.Metrics.hdr_observe m_lat_job
        (r.r_prep_ns + render_ns + (Nxc_obs.Clock.now_ns () - t0));
      out)
    rendered

let tag_job job =
  let t0 = Nxc_obs.Clock.now_ns () in
  let tag =
    match plan job with
    | Bad e -> TBad (Some job, e)
    | Keyed k -> TFollow (job, k)
  in
  let dt = Nxc_obs.Clock.now_ns () - t0 in
  Nxc_obs.Metrics.hdr_observe m_lat_key dt;
  { prep_ns = dt; tag }

(* planning (parse + NPN keying) is pure, so it runs on the pool too;
   Pool.map keeps results, metric merges and exceptions in job order *)
let run_jobs ?pool ?cache jobs =
  run_tagged ?pool ?cache (Nxc_par.Pool.map ?pool tag_job jobs)

let tag_line line =
  let t0 = Nxc_obs.Clock.now_ns () in
  match Job.of_line line with
  | Error e ->
      let dt = Nxc_obs.Clock.now_ns () - t0 in
      Nxc_obs.Metrics.hdr_observe m_lat_parse dt;
      { prep_ns = dt; tag = TBad (None, e) }
  | Ok job ->
      let dt = Nxc_obs.Clock.now_ns () - t0 in
      Nxc_obs.Metrics.hdr_observe m_lat_parse dt;
      let t = tag_job job in
      { t with prep_ns = t.prep_ns + dt }

let run_lines ?pool ?cache lines =
  run_tagged ?pool ?cache (Nxc_par.Pool.map ?pool tag_line lines)

let run_line ?cache line =
  let cache = match cache with Some c -> c | None -> Cache.create () in
  let t0 = Nxc_obs.Clock.now_ns () in
  let out =
    match timed m_lat_parse (fun () -> Job.of_line line) with
    | Error e -> error_envelope e
    | Ok job -> (
        match timed m_lat_key (fun () -> plan job) with
        | Bad e -> error_envelope ?id:job.Job.id ~kind:(Job.kind job) e
        | Keyed k -> resolve_sequential cache job k)
  in
  Nxc_obs.Metrics.hdr_observe m_lat_job (Nxc_obs.Clock.now_ns () - t0);
  out

let batch_exit outcomes =
  match List.find_opt (fun o -> o.exit_code <> 0) outcomes with
  | Some o -> o.exit_code
  | None -> 0

(* ------------------------------------------------------------------ *)
(* pipelined streaming: bounded window, response memo, admission       *)
(* ------------------------------------------------------------------ *)

let m_adm_admitted = Nxc_obs.Metrics.counter "service.admission.admitted"
let m_adm_rejected = Nxc_obs.Metrics.counter "service.admission.rejected"
let m_memo_hits = Nxc_obs.Metrics.counter "service.stream.memo_hits"
let m_memo_misses = Nxc_obs.Metrics.counter "service.stream.memo_misses"
let m_windows = Nxc_obs.Metrics.counter "service.stream.windows"
let m_lat_stream = Nxc_obs.Metrics.hdr "service.latency.stream"

module Stream = struct
  (* envelopes are deterministic functions of the request line, so a
     line-level response memo is sound: a repeat of a line the stream
     already answered is served without planning, keying or rendering *)
  type entry =
    | Queued of { line : string; t_enq : int }
    | Ready of { outcome : outcome; t_enq : int }

  type t = {
    pool : Nxc_par.Pool.t option;
    cache : Cache.t;
    mutable window : int;
    deadline_ms : float option;
    memo : outcome Lru.t;
    mutable rev_pending : entry list;
    mutable queued : int;  (* Queued entries in rev_pending *)
    mutable ewma_ns : float;  (* smoothed per-job service time *)
  }

  let create ?pool ?cache ?window ?deadline_ms () =
    let cache = match cache with Some c -> c | None -> Cache.create () in
    let slots =
      match pool with Some p -> Nxc_par.Pool.slots p | None -> 1
    in
    let window =
      match window with Some w -> max 1 w | None -> 4 * slots
    in
    { pool;
      cache;
      window;
      deadline_ms;
      memo = Lru.create 1024;
      rev_pending = [];
      queued = 0;
      ewma_ns = 0.0 }

  let window t = t.window
  let flush t =
    match List.rev t.rev_pending with
    | [] -> []
    | entries ->
        Nxc_obs.Metrics.incr m_windows;
        t.rev_pending <- [];
        t.queued <- 0;
        let t_start = Nxc_obs.Clock.now_ns () in
        (* resolve each slot: already-decided outcome, memo hit, or a
           miss left for the pooled engine batch *)
        let slots =
          List.map
            (function
              | Ready { outcome; t_enq } -> (Some outcome, t_enq, None)
              | Queued { line; t_enq } -> (
                  match Lru.find t.memo line with
                  | Some o ->
                      Nxc_obs.Metrics.incr m_memo_hits;
                      Nxc_obs.Metrics.incr m_jobs;
                      if o.exit_code <> 0 then Nxc_obs.Metrics.incr m_errors;
                      (Some { o with cached = true }, t_enq, None)
                  | None ->
                      Nxc_obs.Metrics.incr m_memo_misses;
                      (None, t_enq, Some line)))
            entries
        in
        let miss_lines = List.filter_map (fun (_, _, l) -> l) slots in
        let miss_outs = run_lines ?pool:t.pool ~cache:t.cache miss_lines in
        List.iter2
          (fun line out -> ignore (Lru.add t.memo line out))
          miss_lines miss_outs;
        let t_done = Nxc_obs.Clock.now_ns () in
        if miss_lines <> [] then begin
          let per =
            float_of_int (t_done - t_start)
            /. float_of_int (List.length miss_lines)
          in
          t.ewma_ns <-
            (if t.ewma_ns = 0.0 then per
             else (0.8 *. t.ewma_ns) +. (0.2 *. per))
        end;
        let remaining = ref miss_outs in
        List.map
          (fun (ready, t_enq, _) ->
            let out =
              match ready with
              | Some o -> o
              | None -> (
                  match !remaining with
                  | o :: rest ->
                      remaining := rest;
                      o
                  | [] -> assert false)
            in
            Nxc_obs.Metrics.hdr_observe m_lat_stream (t_done - t_enq);
            out)
          slots

  let push t line =
    let now = Nxc_obs.Clock.now_ns () in
    let reject e =
      let id, kind =
        match Job.of_line line with
        | Ok j -> (j.Job.id, Some (Job.kind j))
        | Error _ -> (None, None)
      in
      Nxc_obs.Metrics.incr m_adm_rejected;
      Ready { outcome = error_envelope ?id ?kind e; t_enq = now }
    in
    let entry =
      match t.deadline_ms with
      | Some deadline
        when t.ewma_ns *. float_of_int t.queued >= deadline *. 1e6 ->
          (* the queue ahead cannot drain before the deadline: reject
             up-front with the budget-exhaustion contract (exit 4) *)
          reject
            (`Budget_exhausted
               { Error.label = "admission";
                 steps = t.queued;
                 elapsed_ns =
                   int_of_float (t.ewma_ns *. float_of_int t.queued) })
      | _ ->
          Nxc_obs.Metrics.incr m_adm_admitted;
          (* backpressure: every admitted job charges the ambient
             budget one step, so a budget-bounded serve run winds down
             instead of queueing unboundedly *)
          let b = Budget.current () in
          if Budget.step b then Queued { line; t_enq = now }
          else begin
            match Budget.policy b with
            | Budget.Fail -> reject (Budget.error b)
            | Budget.Degrade ->
                Budget.degrade "stream";
                t.window <- 1;
                Queued { line; t_enq = now }
          end
    in
    (match entry with
    | Queued _ -> t.queued <- t.queued + 1
    | Ready _ -> ());
    t.rev_pending <- entry :: t.rev_pending;
    (* flush when the window fills — or when nothing is actually queued
       (pure rejections), so a rejected job is answered immediately *)
    if t.queued >= t.window || t.queued = 0 then flush t else []
end
