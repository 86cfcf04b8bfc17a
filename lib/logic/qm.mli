(** Exact two-level minimization (Quine–McCluskey).

    Prime implicant generation by iterative merging, then a covering
    step: essential primes first, remaining minterms by branch-and-bound
    (exact, with a node budget) falling back to greedy set cover when
    the budget is exhausted.  One lower bound per covering problem, a
    greedy set of minterms no two of which share a prime
    ({!Sat_cover.independent_set}), prunes the branch and bound, stops
    both exact engines once a cover meets it, and is reported with its
    witness in {!stats} so that a minimum can be checked.

    Both phases are exponential in the worst case, so they cooperate
    with a {!Nxc_guard.Budget}: one step is consumed per pair of
    implicants on adjacent positive-literal counts (charged in bulk,
    once per merge round) and per branch-and-bound node.  When the
    guard trips during the covering step the usual greedy fallback
    applies (the prime set is complete, so the result stays
    function-equivalent); when it trips during prime {e generation} the
    implicant set is unusable, and {!minimize_table} degrades to a
    Minato–Morreale ISOP cover of the ON-set — still
    correct, not minimal — while {!minimize_result} reports
    [`Budget_exhausted] so callers with a [Fail] policy can refuse to
    degrade. *)

val max_vars : int
(** 8: the most variables {!minimize_result} and {!minimize_table}
    accept.  Prime generation marks implicants in a table of 3{^n}
    entries (one per ternary cube), which stays small only up to here;
    they raise [Invalid_argument] above it. *)

val primes : n:int -> on:int list -> Cube.t list
(** All prime implicants of the function with ON-set [on], sorted by
    {!Cube.compare}.  Generated level by level (implicants with k free
    variables, then k+1) on the dense ternary table of {!max_vars}.
    Unbudgeted (never degrades): intended for tests and calibration.
    Raises [Invalid_argument] when [n > max_vars].
    Test-only: test/test_bitslice.ml, test/test_guard.ml and
    test/test_logic_algs.ml — tests check it directly. *)

val cover_exact :
  budget:int ->
  num_sets:int ->
  covered_by:int list array ->
  witness:int list ->
  int list option * bool * int
(** [cover_exact ~budget ~num_sets ~covered_by ~witness] is the branch
    and bound behind the [Bnb] backend: the fewest sets (indices below
    [num_sets], most recently chosen first) such that every element [e]
    has one in [covered_by.(e)] (ascending), whether the search
    completed within [budget] nodes and the ambient budget, and the
    number of nodes visited.  [witness] is
    {!Sat_cover.independent_set}[ covered_by]: a node is pruned when
    its chosen sets plus a lower bound on the rest reach the best cover
    so far — the witness elements still uncovered, or, when that falls
    one short, the greedy independent set of the uncovered elements —
    and the search completes as soon as a cover of
    [List.length witness] sets is found.  Where the unpruned search
    completes, this one returns the same cover in no more nodes.  The best cover found so far
    is returned when the search is cut short.
    Test-only: test/test_bitslice.ml and test/test_guard.ml — tests check it
    against the list-based reference. *)

(** {2 Covering backends}

    The covering step (after essential-prime extraction) can run on two
    exact engines: the in-module branch and bound ([Bnb], the default)
    or the {!Sat_cover} encoding over the {!Nxc_sat} CDCL solver
    ([Sat]).  Both return minimum covers when they complete, so covers
    only differ in which equally-sized solution they pick; E18 verifies
    the two backends semantically equivalent on the paper's suites.

    On budget exhaustion the [Sat] backend degrades to [Bnb] under a
    [guard.degrade.sat_to_bnb] count (which, with the budget already
    dead, immediately winds down to the usual greedy fallback) — except
    under a [Fail]-policy budget, where {!minimize_result} reports
    [`Budget_exhausted] instead. *)

type cover_backend = Bnb | Sat

val set_cover_backend : cover_backend -> unit
(** Process-wide default for entry points that don't pass
    [?cover_backend] — set once at CLI/service start-up, before any
    worker domain spawns. *)

type stats = {
  num_primes : int;  (** 0 when prime generation was cut short *)
  num_essential : int;
  exact : bool;  (** false when any covering fallback was taken *)
  lower_bound : int;
      (** [num_essential + List.length witness]: no cover of the
          function has fewer cubes.  An [exact] cover of this size
          needed no search to be proven minimum; 0 when prime
          generation was cut short *)
  witness : int list;
      (** ON minterms, ascending, that no essential prime covers and no
          two of which share a prime: each needs a prime of its own.
          The certificate behind [lower_bound], checkable against the
          function alone *)
}

val minimize_result :
  ?cover_backend:cover_backend ->
  n:int ->
  int list ->
  (Cover.t * stats, Nxc_guard.Error.t) result
(** Like {!minimize_table} on the ON-set minterms, but reports
    [`Budget_exhausted] instead of computing the ISOP fallback when the
    budget trips during prime generation (or, under a [Fail]-policy
    budget, during [Sat]-backend covering). *)

val minimize_table : Truth_table.t -> Cover.t * stats
(** A minimum (or near-minimum, see {!field-stats.exact}) cover of the
    table's ON-set.  The branch and bound explores at most 200_000
    nodes, and both covering engines stop as soon as their cover meets
    {!field-stats.lower_bound}; a cover the cap cut short is the best
    one found, flagged inexact; the ambient budget bounds total work; the process-wide
    {!set_cover_backend} picks the exact covering engine.  Total: on
    budget exhaustion during prime generation it returns the degraded
    ISOP cover described above and counts a
    [guard.degrade.qm_to_isop].
    Test-only: bench/main.ml, test/chaos/chaos.ml, test/test_guard.ml and
    test/test_logic_algs.ml — the bench and the tests call it. *)
