(* In-memory LRU store keyed by opaque strings, with JSONL persistence.

   The store is split into N independent shards, each an [Lru.t] (the
   recency policy lives there) plus its own mutex and counters,
   selected by a stable hash of the key.  With the default single shard
   the behavior is exactly the historical one; the service's concurrent
   serve mode creates one shard per runner slot so cache traffic from
   different jobs contends on different locks. *)

module J = Nxc_obs.Json
module Error = Nxc_guard.Error

let m_hits = Nxc_obs.Metrics.counter "service.cache.hits"
let m_misses = Nxc_obs.Metrics.counter "service.cache.misses"
let m_evictions = Nxc_obs.Metrics.counter "service.cache.evictions"

(* Per-shard instruments ([service.cache.shard<i>.*]) are registered
   lazily, only for multi-shard caches, so single-shard runs (and the
   pinned [stats] snapshots) keep the historical metric surface. *)
type shard_metrics = {
  sm_hits : Nxc_obs.Metrics.counter;
  sm_misses : Nxc_obs.Metrics.counter;
  sm_evictions : Nxc_obs.Metrics.counter;
}

type shard = {
  lru : J.t Lru.t;
  lock : Mutex.t;
  mutable s_hits : int;
  mutable s_misses : int;
  metrics : shard_metrics option;
}

type t = { shards_arr : shard array }

let make_shard cap metrics =
  { lru = Lru.create cap;
    lock = Mutex.create ();
    s_hits = 0;
    s_misses = 0;
    metrics }

(* entries a cache holds, over all its shards *)
let capacity = 4096

let create ?(shards = 1) () =
  if shards <= 0 then invalid_arg "Nxc_service.Cache.create: shards <= 0";
  let shard_cap = (capacity + shards - 1) / shards in
  let metrics i =
    if shards = 1 then None
    else
      Some
        { sm_hits =
            Nxc_obs.Metrics.counter
              (Printf.sprintf "service.cache.shard%d.hits" i);
          sm_misses =
            Nxc_obs.Metrics.counter
              (Printf.sprintf "service.cache.shard%d.misses" i);
          sm_evictions =
            Nxc_obs.Metrics.counter
              (Printf.sprintf "service.cache.shard%d.evictions" i) }
  in
  { shards_arr = Array.init shards (fun i -> make_shard shard_cap (metrics i)) }

(* Stable shard routing: OCaml's polymorphic hash is a fixed
   polynomial over the bytes of a string, so the same key lands on the
   same shard in every run and on every domain. *)
let shard_of t key = Hashtbl.hash key mod Array.length t.shards_arr

let locked sh f =
  Mutex.lock sh.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock sh.lock) f

let sum f t = Array.fold_left (fun acc sh -> acc + f sh) 0 t.shards_arr
let hits t = sum (fun sh -> sh.s_hits) t
let misses t = sum (fun sh -> sh.s_misses) t

let peek t key =
  let sh = t.shards_arr.(shard_of t key) in
  locked sh (fun () -> Lru.peek sh.lru key)

let find t key =
  let sh = t.shards_arr.(shard_of t key) in
  locked sh (fun () ->
      match Lru.find sh.lru key with
      | Some v ->
          sh.s_hits <- sh.s_hits + 1;
          Nxc_obs.Metrics.incr m_hits;
          (match sh.metrics with
          | Some m -> Nxc_obs.Metrics.incr m.sm_hits
          | None -> ());
          Some v
      | None ->
          sh.s_misses <- sh.s_misses + 1;
          Nxc_obs.Metrics.incr m_misses;
          (match sh.metrics with
          | Some m -> Nxc_obs.Metrics.incr m.sm_misses
          | None -> ());
          None)

let add t key value =
  let sh = t.shards_arr.(shard_of t key) in
  locked sh (fun () ->
      if Lru.add sh.lru key value then begin
        Nxc_obs.Metrics.incr m_evictions;
        match sh.metrics with
        | Some m -> Nxc_obs.Metrics.incr m.sm_evictions
        | None -> ()
      end)

let default_path = ".nxc-cache"

(* Persistence merges the shards back into one sorted entry list, so
   the on-disk format is identical for every shard count (and to the
   historical single-shard file). *)
let save t path =
  let entries =
    Array.fold_left
      (fun acc sh ->
        locked sh (fun () ->
            Lru.fold (fun k v acc -> (k, v) :: acc) sh.lru acc))
      [] t.shards_arr
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  match open_out path with
  | exception Sys_error msg -> Error (Error.internal msg)
  | oc ->
      List.iter
        (fun (k, v) ->
          output_string oc (J.to_string (J.Obj [ ("k", J.Str k); ("v", v) ]));
          output_char oc '\n')
        entries;
      close_out oc;
      Ok (List.length entries)

(* Every line is parsed before any is added, so a malformed file adds
   nothing.  Replayed entries go through [add]: a key already present
   (replay into a warm cache) refreshes its recency exactly like a
   [find] hit would, so a warmed-from-disk cache evicts in true LRU
   order with respect to everything that happened after the load. *)
let load t path =
  if not (Sys.file_exists path) then Ok 0
  else
    match open_in path with
    | exception Sys_error msg -> Error (Error.internal msg)
    | ic ->
        let bad line reason =
          close_in ic;
          Error (Error.invalid_input ~line reason)
        in
        let rec go line rev_entries =
          match input_line ic with
          | exception End_of_file ->
              close_in ic;
              let entries = List.rev rev_entries in
              List.iter (fun (k, v) -> add t k v) entries;
              Ok (List.length entries)
          | "" -> go (line + 1) rev_entries
          | s -> (
              match J.of_string s with
              | exception J.Parse_error msg ->
                  bad line (Printf.sprintf "cache entry: %s" msg)
              | j -> (
                  match (J.member "k" j, J.member "v" j) with
                  | Some (J.Str k), Some v ->
                      go (line + 1) ((k, v) :: rev_entries)
                  | _ -> bad line "cache entry: expected {\"k\": ..., \"v\": ...}"))
        in
        go 1 []
