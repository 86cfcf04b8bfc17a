(** Process-global registry of named counters, gauges and HDR
    histograms.

    Naming scheme: ["<namespace>.<metric>"] — all segments lowercase
    [a-z0-9_], starting with a letter, joined by dots.  The namespace is
    the subsystem that owns the instrument and must be one of: [bira],
    [bism], [bist], [bitslice], [defect],
    [fault_model], [flow], [guard], [isop], [lattice], [loadgen],
    [minimize], [montecarlo],
    [npn], [par], [qm], [sat], [service], [synth] (plus [test] for instruments
    created by the test suite itself).  {!valid_name} checks a name against this scheme and
    the namespace-lint test enforces it for every instrument registered
    at runtime.

    Instruments are created once (typically at module-initialization
    time) and recording is a plain field mutation: no allocation, no
    locking.  Recording is always on — it is cheap enough that there is
    no disabled mode; only the {e reporting} ([dump_*]) is opt-in.

    {b Domains.}  The registry itself is not safe to touch from several
    domains at once.  Parallel sections ({!Nxc_par.Pool}) instead run
    each task under {!with_buffer}: recording is redirected, by
    instrument name, into a domain-local {!type-buffer} of deltas that
    the pool {!merge}s back on the main domain at join.  Counter and
    histogram totals therefore come out identical to a sequential run;
    a gauge takes the last buffered value in merge order. *)

type counter
type gauge

type hdr
(** Log-linear high-dynamic-range histogram: each power-of-two octave
    is split into 16 linear sub-buckets, so any bucket's width is at
    most 1/16 of its lower bound and quantiles carry a bounded relative
    error of at most 6.25% over the whole non-negative [int] range.
    Values below 16 get exact single-value buckets.  Latencies and
    size distributions alike use this one kind. *)

(** [counter name] returns the counter registered under [name],
    creating it on first use.
    @raise Invalid_argument if [name] is registered as another kind. *)
val counter : string -> counter

val gauge : string -> gauge
(** [gauge name] returns the gauge registered under [name], creating it
    on first use.
    @raise Invalid_argument if [name] is registered as another kind. *)

val hdr : string -> hdr
(** [hdr name] returns the HDR histogram registered under [name],
    creating it on first use.
    @raise Invalid_argument if [name] is registered as another kind. *)

val incr : counter -> unit
(** Add one to a counter. *)

val add : counter -> int -> unit
(** [add c n] adds [n] to counter [c]. *)

val counter_value : counter -> int
(** Current value recorded {e in the global registry} (buffered deltas
    from unmerged parallel sections are not visible here).
    Test-only: bench/main.ml, svcbench/main.ml, svcbench/replay.ml,
    test/chaos/chaos.ml, test/par/test_par.ml, test/test_guard.ml,
    test/test_logic_algs.ml, test/test_obs.ml, test/test_sat.ml and
    test/test_service.ml — tests, chaos and the benchmarks read counters
    with it. *)

val set : gauge -> float -> unit
(** [set g v] overwrites the gauge's value. *)

val gauge_value : gauge -> float
(** Current value recorded in the global registry.
    Test-only: svcbench/replay.ml, test/test_obs.ml and test/test_sat.ml —
    tests and svcbench read gauges with it. *)

(** {2 HDR histograms} *)

val hdr_observe : hdr -> int -> unit
(** [hdr_observe h v] records [v >= 0] into its log-linear bucket.
    @raise Invalid_argument when [v < 0]. *)

val hdr_quantile : hdr -> float -> int
(** [hdr_quantile h q] for [q] in [[0, 1]] (clamped) is the smallest
    bucket upper bound whose cumulative count reaches rank
    [ceil (q * count)], clamped to the observed [[min, max]]; [0] when
    nothing was observed.  Relative error is bounded by the 6.25%
    bucket width (exact below 16 and at the observed extremes), and the
    result is deterministic for deterministic inputs.
    Test-only: bench/main.ml and test/test_obs.ml — tests and the bench read
    quantiles with it. *)

val hdr_bucket_of : int -> int
(** [hdr_bucket_of v] is the bucket index [hdr_observe] files [v]
    under.
    Test-only: test/test_obs.ml — tests check the HDR bucket layout with it.
    @raise Invalid_argument when [v < 0]. *)

val hdr_bucket_range : int -> int * int
(** [hdr_bucket_range i] is the inclusive [(lo, hi)] range of HDR
    bucket [i].
    Test-only: test/test_obs.ml — tests check the HDR bucket layout with it. *)

val hdr_num_buckets : int
(** Total number of HDR buckets.
    Test-only: test/test_obs.ml — tests check the HDR bucket layout with it. *)

(** {2 Parallel-section buffers}

    Used by {!Nxc_par.Pool} to keep worker domains off the shared
    registry; see the module preamble. *)

type buffer
(** A set of metric deltas, private to one parallel task. *)

val buffer : unit -> buffer
(** A fresh, empty delta buffer. *)

val with_buffer : buffer -> (unit -> 'a) -> 'a
(** [with_buffer b f] runs [f] with all recording (and instrument
    creation) in the calling domain redirected into [b].  Scoped and
    exception-safe; buffers may nest, innermost wins. *)

val merge : buffer -> unit
(** [merge b] folds the deltas of [b] into the caller's current sink —
    normally the global registry — creating instruments as needed.
    Counters and histograms are added; a gauge present in
    [b] overwrites the sink's value.
    @raise Invalid_argument on an instrument-kind clash with the sink. *)

(** Zero every registered instrument, keeping registrations. *)
val reset : unit -> unit
(** Test-only: bench/main.ml, svcbench/main.ml, test/par/test_par.ml and
    test/test_obs.ml — the service benchmark and the tests drive it. *)

(** {2 Naming} *)

val names : unit -> string list
(** Sorted names of every instrument currently registered in the
    caller's sink.
    Test-only: test/test_obs.ml — tests check it directly. *)

val valid_name : string -> bool
(** [valid_name n] is true iff [n] follows the documented
    ["<namespace>.<metric>"] scheme: a known namespace, at least one
    further segment, all segments lowercase [a-z0-9_] starting with a
    letter.
    Test-only: test/test_obs.ml — the namespace-lint test checks every name
    with it. *)

(** {2 Reporting} *)

(** Snapshot of every registered metric, keys sorted, as
    [{"counters": {...}, "gauges": {...}, "histograms": {...}}].  HDR
    histograms appear under ["histograms"] with [count], [sum],
    [min], [max], quantiles [p50]/[p90]/[p95]/[p99] and the non-empty
    [buckets]. *)
val dump_json : unit -> Json.t

(** One line per registered metric, sorted by name; histogram lines
    include p50/p95/p99. *)
val dump_text : unit -> string

(** Prometheus text exposition (format 0.0.4): instrument names are
    prefixed with [nanoxcomp_] and sanitized to [[a-z0-9_]]; histograms
    emit cumulative [_bucket{le="..."}] series over their non-empty
    buckets plus [+Inf], [_sum] and [_count]. *)
val dump_prometheus : unit -> string
