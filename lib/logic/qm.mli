(** Exact two-level minimization (Quine–McCluskey).

    Prime implicant generation by iterative merging, then a covering
    step: essential primes first, remaining minterms by branch-and-bound
    (exact, with a node budget) falling back to greedy set cover when
    the budget is exhausted.

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

val primes : n:int -> on:int list -> dc:int list -> Cube.t list
(** All prime implicants of the function given by ON-set and DC-set
    minterms.  Unbudgeted (never degrades): intended for tests and
    calibration.
    Test-only: test/test_bitslice.ml, test/test_guard.ml and
    test/test_logic_algs.ml — tests check it directly. *)

val cover_exact :
  budget:int -> Cube.t array -> int list -> int list option * bool * int
(** [cover_exact ~budget primes on] is the branch and bound
    behind the [Bnb] backend: the fewest primes (as indices into
    [primes], most recently chosen first) covering every minterm of
    [on], whether the search completed within [budget] nodes and the
    ambient budget, and the number of nodes visited.  The best cover found so
    far is returned when the search is cut short.
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
    nodes; the ambient budget bounds total work; the process-wide
    {!set_cover_backend} picks the exact covering engine.  Total: on
    budget exhaustion during prime generation it returns the degraded
    ISOP cover described above and counts a
    [guard.degrade.qm_to_isop].
    Test-only: bench/main.ml, test/chaos/chaos.ml, test/test_guard.ml and
    test/test_logic_algs.ml — the bench and the tests call it. *)
