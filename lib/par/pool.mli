(** A fixed pool of worker domains for deterministic data-parallel
    batches.

    The pool exists for the pipeline's embarrassingly parallel hot
    loops — Monte-Carlo trials ([Nxc_reliability.Bism.monte_carlo],
    [Yield_model], [Lifetime]), defect-map sweeps and the service
    engine's planning passes — all of which map an index range through
    a pure-up-to-RNG task function.

    {b Determinism.}  [map_range] returns results in index order and
    callers pre-split their RNG into one independent stream per task
    (see [Nxc_reliability.Rng.split]), so a parallel run is
    bit-identical to a sequential one regardless of how chunks land on
    domains.  Exceptions are captured per chunk and the one the
    lowest-indexed raising task threw is re-raised at the join — the
    same exception a plain sequential loop would have surfaced.

    {b Observability.}  Each chunk runs under a private
    [Nxc_obs.Metrics] buffer and a [Nxc_obs.Span] collection; the join
    merges both back on the calling domain in chunk order, so counter
    and histogram totals match the sequential run and traces stay one
    coherent tree.

    {b Robustness.}  The caller's [Nxc_guard] budget is partitioned
    into one slice per runner slot before the batch and the consumed
    steps are charged back at the join ([Nxc_guard.Budget.partition] /
    [absorb]).  Slices force the [Degrade] policy, so exhaustion
    mid-batch winds work down gracefully exactly like the sequential
    paths.  Note that {e which} tasks feel the exhaustion first depends
    on scheduling: under budget pressure, parallel and sequential runs
    may degrade at different points.

    {b Domain-local scratch.}  Task functions that lean on reusable
    kernel scratch (e.g. [Nxc_lattice.Lattice.scratch]) must not share
    one buffer across the batch — chunks run on different domains.
    Keep one scratch per domain via [Domain.DLS] (the pattern
    [Nxc_lattice.Checker] and [Nxc_reliability.Fault_model] use), or
    allocate it inside the task.  Scratch never affects results, so
    this is purely an allocation concern, not a determinism one.

    A pool whose worker count is [0] still runs every batch on the
    calling domain (the main domain always participates as a runner
    slot), so the same code path is exercised on single-core hosts. *)

type t
(** A handle on a set of idle worker domains.  Not itself thread-safe:
    drive a pool from one domain at a time. *)

val create : ?workers:int -> unit -> t
(** [create ()] spawns [workers] worker domains (default
    [Domain.recommended_domain_count - 1], clamped to [>= 0]).  The
    domains idle on a condition variable between batches; call
    {!shutdown} to join them.
    Test-only: svcbench/main.ml, test/par/test_par.ml, test/test_repair.ml
    and test/test_sat.ml — the service benchmark and the tests drive it. *)

val shutdown : t -> unit
(** Ask the workers to exit and join them.  Idempotent.  A pool must
    not be used after shutdown.
    Test-only: svcbench/main.ml, test/par/test_par.ml, test/test_repair.ml
    and test/test_sat.ml — tests and the bench own pools directly. *)

val slots : t -> int
(** Number of runner slots, i.e. the worker domains plus one: the
    calling domain participates in every batch. *)

val map_range : ?pool:t -> int -> (int -> 'a) -> 'a array
(** [map_range n f] is [[| f 0; f 1; ...; f (n-1) |]].

    Without [?pool] the tasks run sequentially in index order on the
    calling domain, under the caller's ambient budget; with [?pool]
    they are dealt out chunk-wise to the pool's runner slots, each
    running under its partition slice of that budget installed as the
    {e ambient} budget.  Either way task code reaches its guard through
    [Nxc_guard.Budget.current] and behaves identically in both modes.

    A runner claims [ceil (n / (4 * slots))] consecutive indices at a
    time, so a batch splits into roughly four chunks per slot.  Results,
    metric merges, span merges and exception choice are all in index
    order — see the module preamble for the determinism contract.

    @raise Invalid_argument if [n < 0]. *)

val map : ?pool:t -> ('a -> 'b) -> 'a list -> 'b list
(** [map f xs] is [List.map f xs] through {!map_range}: same order,
    same determinism contract. *)

(** {2 CLI plumbing} *)

val max_jobs : int
(** The largest [--jobs] value, [128]: the OCaml runtime's default
    domain limit, which counts the calling domain too. *)

val with_jobs : int -> (t option -> 'a) -> 'a
(** [with_jobs jobs f] runs [f] with the pool a [--jobs] value asks
    for and a guaranteed {!shutdown} of it: [1] (the default
    everywhere) means sequential ([None]); [0] means one slot per
    recommended domain; [n >= 2] means a pool with [n - 1] workers (so
    [n] runner slots in total).
    @raise Invalid_argument if the value is negative or above
    {!max_jobs}, before any domain is spawned. *)
