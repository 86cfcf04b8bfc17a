(** Application-independent defect-tolerant flow (Section IV.C, Fig. 6).

    The defect-{e unaware} flow performs defect tolerance once per chip:
    from the [N x N] partially defective crossbar it extracts a
    universal [k x k] {e defect-free} subset of rows and columns.  All
    later design steps target the perfect [k x k] array; only the final
    mapping consults the (small, O(N)) recovered-resource list, instead
    of a per-application O(N²) defect map as in the traditional
    defect-aware flow.

    Extracting the largest defect-free sub-crossbar is the maximum
    balanced biclique problem (NP-hard); we provide the standard greedy
    deletion heuristic plus an exact branch-and-bound for small arrays
    to calibrate it. *)

type selection = { sel_rows : int array; sel_cols : int array }

val greedy_max : Defect.t -> selection
(** Repeatedly delete the row or column containing the most defects
    (ties: shrink the larger side) until none remain, then balance to a
    square. *)

val extract : Defect.t -> k:int -> selection option
(** A [k x k] defect-free selection via {!greedy_max}: the first [k]
    rows and columns of its result, or [None] when the heuristic
    recovers fewer than [k].  The deletion stops as soon as fewer than
    [k] rows or columns survive — deletion never restores a line, so
    the answer is already [None] there — which makes a [k] out of
    reach cheap; the result is the same as running {!greedy_max} to
    the end. *)

val exact_max : Defect.t -> selection
(** Branch-and-bound maximum square selection.  Exponential: meant for
    arrays up to roughly 12x12 (calibration of {!greedy_max}).  Total:
    it explores at most 2,000,000 nodes and consumes one step of the
    ambient budget per node; when either limit trips the
    function degrades to the best of the partial search and
    {!greedy_max}, counting a [guard.degrade.exact_to_greedy]. *)

val recovered_k : selection -> int

(** {2 Flow cost model (Fig. 6)}

    Abstract step counts comparing the two flows over a production run
    of [chips] chips and [apps] applications:

    - defect-aware: every chip is tested and diagnosed to a full O(N²)
      defect map, and every application is re-placed per chip against
      that map;
    - defect-unaware: every chip is tested once to extract the [k x k]
      subset (O(N) map of recovered indices); physical design happens
      once per application, and the final per-chip mapping is a cheap
      index translation. *)

type cost = {
  flow : string;
  map_entries_per_chip : int;
  design_runs : int;
  per_chip_mapping_steps : int;
  total_steps : int;
}

val aware_cost : n:int -> chips:int -> apps:int -> cost

val unaware_cost : n:int -> k:int -> chips:int -> apps:int -> cost

val pp_cost : Format.formatter -> cost -> unit

(** {2 Defect-aware placement (Fig. 6a's final mapping)}

    The traditional flow maps one {e specific} configuration around the
    chip's defects: a lattice site that is constantly open ([Zero])
    tolerates a stuck-open crosspoint underneath it, a constantly
    closed site ([One]) tolerates a stuck-closed one, and literal sites
    need clean crosspoints.  This per-application matching succeeds at
    densities where the universal defect-free extraction cannot — at
    the cost of redoing the search for every application and chip,
    which is exactly the trade-off Fig. 6 illustrates. *)

val place_lattice :
  Rng.t -> Defect.t -> Nxc_lattice.Lattice.t -> attempts:int ->
  (int array * int array) option
(** Randomized search with greedy row/column repair for a physical
    (row, column) selection on which every site is compatible.
    Returns (physical rows, physical cols) indexed by lattice
    coordinates.  One step of the ambient budget is consumed per
    attempt and the repair loop stops early on a dead budget, so
    exhaustion simply yields [None].
    Test-only: test/test_extensions.ml and test/test_guard.ml — tests check
    it directly. *)

(** {2 Monte-Carlo placement sweep}

    The head-to-head experiment behind Fig. 6: over a population of
    random chips, how often does each flow succeed? *)

type sweep = {
  sweep_chips : int;
  placed_unaware : int;
      (** chips whose defect-free extraction was large enough for the
          lattice *)
  placed_aware : int;  (** chips where {!place_lattice} succeeded *)
}

val placement_sweep :
  ?pool:Nxc_par.Pool.t ->
  Rng.t ->
  lattice:Nxc_lattice.Lattice.t ->
  chips:int ->
  n:int ->
  profile:Defect.profile ->
  attempts:int ->
  sweep
(** [placement_sweep rng ~lattice ~chips ~n ~profile ~attempts]
    fabricates [chips] random [n x n] chips and tries both flows on
    each, one chip per trial of {!Rng.map_trials} (determinism and
    budget contract there).
    Test-only: bench/main.ml, test/par/test_par.ml and test/test_guard.ml —
    tests and the bench run the Fig. 6 sweep.
    @raise Invalid_argument when [chips <= 0]. *)
