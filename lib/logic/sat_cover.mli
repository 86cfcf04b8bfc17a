(** Exact minimum set cover via the {!Nxc_sat} solver.

    The covering step of Quine{e –}McCluskey (choose the fewest primes
    covering every remaining ON minterm) is plain minimum set cover.
    This backend encodes it propositionally — one selection variable
    per set, an at-least-one clause per element, and a sequential
    counter over the selectors — then tightens the cardinality bound
    one step at a time through {!Nxc_sat.Solver.solve} assumptions
    until the bound [s - 1] is refuted, which proves the size-[s]
    certificate optimal.

    Selected through {!Qm}'s [cover_backend] parameter (CLI/jobs:
    [--cover-backend sat]); on budget exhaustion {!Qm} degrades back to
    branch and bound under [guard.degrade.sat_to_bnb]. *)

type outcome = {
  chosen : int list;
      (** selected set indices, ascending; a valid cover always *)
  optimal : bool;
      (** [true] when the next-smaller bound was proven unsatisfiable;
          [false] when the budget tripped mid-tightening and [chosen]
          is only the best certificate found *)
}

val min_cover :
  num_sets:int ->
  covered_by:int list array ->
  unit ->
  (outcome, Nxc_guard.Error.t) result
(** [min_cover ~num_sets ~covered_by ()] minimises the number of sets
    chosen such that every element [e] has some chosen set in
    [covered_by.(e)].  Errors: [`Unsat] when an element has no
    covering set, [`Budget_exhausted] when the budget tripped before
    {e any} certificate was found.  Charges the ambient budget.
    Deterministic (solver seed 0), independent of any pool.
    Test-only: test/test_guard.ml and test/test_sat.ml — tests call the SAT
    cover directly. *)

val min_cube_cover :
  primes:Cube.t array ->
  minterms:int list ->
  unit ->
  (outcome, Nxc_guard.Error.t) result
(** {!min_cover} with sets as prime-implicant cubes and elements as ON
    minterms, covering tested by {!Cube.eval_int}. *)
