(** Content-addressed result cache with sharded LRU eviction and
    optional on-disk persistence.

    The store maps opaque string keys — NPN-canonical function keys
    ({!Nxc_logic.Npn}) or canonical job-spec strings ({!Job}) — to JSON
    values.  It is the memory of the {!Engine}: repeated or
    NPN-symmetric requests resolve here instead of re-running
    QM/lattice search or a seeded simulation.

    {b Sharding.}  The table is split into [shards] independent
    {!Lru} shards (default 1), each with its own mutex and counters,
    selected by a stable hash of the key.  The concurrent
    serve mode creates one shard per runner slot so cache traffic from
    different jobs contends on different locks; a single-shard cache
    behaves exactly like the historical unsharded one.  Every operation
    takes only its shard's lock, so the cache is safe to touch from any
    domain — though the {!Engine} still performs hit/miss {e
    accounting} on one domain to keep it deterministic.

    Lookups and insertions maintain the [service.cache.hits],
    [service.cache.misses] and [service.cache.evictions] counters in
    {!Nxc_obs.Metrics} (plus per-instance totals for reporting).  A
    multi-shard cache additionally maintains per-shard
    [service.cache.shard<i>.{hits,misses,evictions}] counters, so shard
    balance is visible in [stats --prom] and the serve [__stats__]
    snapshot. *)

type t

val create : ?shards:int -> unit -> t
(** Fresh empty cache holding at most 4096 entries split over [shards]
    (default 1) independent LRU shards of [ceil (4096 / shards)]
    entries each; inserting into a full shard evicts that shard's least
    recently used entry.  A key routes to shard [h mod shards], [h] a
    fixed polynomial hash of the key, stable across calls, runs and
    domains.
    @raise Invalid_argument when [shards <= 0]. *)

val peek : t -> string -> Nxc_obs.Json.t option
(** Lookup without touching recency or the hit/miss counters (used by
    the engine's planning pass). *)

val find : t -> string -> Nxc_obs.Json.t option
(** Recorded lookup: bumps recency and counts a hit or a miss. *)

val add : t -> string -> Nxc_obs.Json.t -> unit
(** Insert or overwrite, evicting the shard's LRU entry when the shard
    is full. *)

val hits : t -> int
(** Test-only: bench/main.ml and test/test_service.ml — the bench and the
    tests call it. *)

val misses : t -> int
(** Test-only: bench/main.ml and test/test_service.ml — the bench and the
    tests call it. *)

val default_path : string
(** [".nxc-cache"] — the CLI's default persistence file (gitignored). *)

(** {2 Persistence}

    One JSON object [{"k": key, "v": value}] per line, sorted by key so
    the file is deterministic for a given content.  Shards are merged
    into the one sorted stream on {!save}, so the on-disk format is
    byte-identical for every shard count. *)

val save : t -> string -> (int, Nxc_guard.Error.t) result
(** Write every entry to [path]; returns the number written. *)

val load : t -> string -> (int, Nxc_guard.Error.t) result
(** Merge the entries of [path] into the cache (no hit/miss
    accounting); returns the number loaded.  Entries are replayed
    through {!add}, so re-loading over a warm cache refreshes recency
    like a hit and the warmed cache evicts in true LRU order.  A
    missing file is [Ok 0]; a malformed line is an [`Invalid_input]
    carrying its line number, and then nothing is added: every line is
    parsed before the first entry goes in. *)
