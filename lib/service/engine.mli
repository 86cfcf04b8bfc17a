(** The job engine: schedule {!Job} specs, resolve them against a
    {!Cache}, compute misses on a {!Nxc_par.Pool}, and emit one JSON
    result envelope per job.

    {2 Envelope}

    Every job produces exactly one line:

    {v
 {"id":"j1","kind":"synth","status":"ok","exit":0,"result":{...}}
 {"id":null,"kind":null,"status":"error","exit":3,"error":"invalid input: ..."}
    v}

    ["exit"] is the job's CLI exit-code equivalent (0 ok, 1 internal,
    3 invalid input, 4 budget exhausted under a [Fail] policy, 5
    non-functional flow).  Envelopes are {e deterministic}: they carry
    no wall-clock times and no cache provenance, so a warm run, a cold
    run and any [--jobs N] produce byte-identical output for the same
    job list.  Timings and hit/miss traffic are reported through
    {!Nxc_obs} spans and metrics instead ([service.*],
    [service.cache.*]).

    {2 Caching}

    [Synth] jobs are keyed by the NPN class of their parsed function
    ([Nxc_logic.Npn.table_key] of {!Nxc_logic.Npn.canonical} plus an
    output-phase tag): the
    cache stores the minimized covers of the function and its dual in
    canonical input coordinates, and a hit maps them back through the
    request's own NPN transform — so permuted/negated variants reuse
    one QM run and still receive exact covers of {e their}
    function (re-verified on every hit).  The other kinds are seeded
    simulations; their whole result envelope payload is cached under
    the canonical spec string ({!Job.cache_key}).

    {2 Determinism under parallelism}

    [run_jobs] runs four passes.  Planning (parse + NPN keying, pure)
    runs on the pool in job order; leader marking is sequential: the
    {e first} job of each key group (not already cached) becomes the
    group's single computing leader, and leaders' computes are
    dispatched to the pool — except a lone leader, which computes on
    the calling domain and lends the pool to its Monte-Carlo trials
    (unless the job carries its own [budget_steps]), so a one-job
    batch still spreads its trials.  The cache pass then runs on the
    calling domain in job order — every read and write happens there,
    so which job computes and which job hits is a function of the job
    list and the cache contents, never of scheduling.  Finally rendering (a pure
    function of the cache value and the request's own NPN transform,
    including the hit-path re-verification) runs on the pool, and
    envelopes are emitted sequentially in job order. *)

type outcome = {
  envelope : Nxc_obs.Json.t;  (** the result line *)
  exit_code : int;  (** the envelope's ["exit"] field *)
  cached : bool;  (** resolved from the cache (not part of the envelope) *)
}

val run_jobs :
  ?pool:Nxc_par.Pool.t -> ?cache:Cache.t -> Job.t list -> outcome list
(** Process a batch, one outcome per job in order.  Without [?cache] a
    fresh in-memory cache still deduplicates within the batch.  The
    CLI's simulation subcommands are one-job batches through here.
    Must not be called from inside a batch already running on [pool]
    (a pool runs one batch at a time). *)

val run_lines :
  ?pool:Nxc_par.Pool.t -> ?cache:Cache.t -> string list -> outcome list
(** {!run_jobs} over raw JSONL lines; a line {!Job.of_line} rejects
    becomes an error envelope (exit 3) rather than aborting the
    batch. *)

val run_line : ?cache:Cache.t -> string -> outcome
(** Resolve a single line on the calling domain, without a pool: the
    sequential reference that {!Stream} and {!run_lines} must match
    byte for byte.  No product path calls it.  It stays here, not with
    the test oracles, because the stream-equivalence and telemetry
    tests compare against it and the bench's LOADGEN [--jobs 1] arm
    times it, and moving it out would mean exporting the engine's
    planning and sequential resolution.
    Test-only: bench/main.ml, test/test_obs.ml, test/test_reliability.ml and
    test/test_service.ml — the bench and the tests call it. *)

val batch_exit : outcome list -> int
(** The batch's process exit code: [0] when every job's ["exit"] is
    [0], otherwise the first non-zero one in job order. *)

(** Pipelined streaming for the [serve] loop: jobs are read ahead of
    completion into a bounded in-flight window and resolved window-wise
    through {!run_lines} on the pool, with outcomes returned strictly
    in input order.

    {b Response memo.}  Envelopes are deterministic functions of the
    request line, so the stream keeps a line-level {!Lru} memo of the
    1024 most recently used lines' responses: an exact repeat is
    answered without planning, keying or rendering
    ([service.stream.memo_hits] / [memo_misses]); it still counts under
    [service.jobs].

    {b Deadline admission.}  With [?deadline_ms] set, each pushed job
    is admitted only if the queue ahead of it is expected to drain in
    time ([EWMA job time × queue depth < deadline]).  A rejected job
    receives a normal error envelope with the budget-exhaustion
    contract (["exit": 4], label ["admission"]), emitted in input
    order; rejections count under [service.admission.rejected].
    [--job-deadline-ms 0] therefore deterministically rejects every
    job.

    {b Backpressure.}  Every admitted job charges the ambient
    {!Nxc_guard.Budget} one step.  On exhaustion a [Fail]-policy budget
    rejects the job with its own budget error; a [Degrade]-policy
    budget records [guard.degrade.stream] and shrinks the window to 1
    (fully synchronous, no read-ahead). *)
module Stream : sig
  type t

  val create :
    ?pool:Nxc_par.Pool.t ->
    ?cache:Cache.t ->
    ?window:int ->
    ?deadline_ms:float ->
    unit ->
    t
  (** [window] defaults to [4 × slots] of [pool] (4 without a pool) and
      is clamped to [>= 1].  Without [?deadline_ms] every job is
      admitted. *)

  val window : t -> int
  (** Test-only: svcbench/main.ml and test/test_service.ml — the service
      benchmark and the tests drive it. *)

  val push : t -> string -> outcome list
  (** Enqueue one request line.  Returns [[]] while the window fills,
      or everything pending (in input order) when pushing this line
      filled the window — or when nothing is queued at all (a rejected
      job with an empty queue is answered immediately). *)

  val flush : t -> outcome list
  (** Resolve and return everything pending (in input order) — the
      end-of-input drain, also used before serving [__stats__]. *)
end
