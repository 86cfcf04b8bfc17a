(** Exact minimum set cover via the {!Nxc_sat} solver.

    The covering step of Quine{e –}McCluskey (choose the fewest primes
    covering every remaining ON minterm) is plain minimum set cover.
    This backend encodes it propositionally — one selection variable
    per set, an at-least-one clause per element, and a sequential
    counter over the selectors — then tightens the cardinality bound
    one step at a time through {!Nxc_sat.Solver.solve} assumptions
    until the bound [s - 1] is refuted, which proves the size-[s]
    certificate optimal — or until [s] meets a lower bound, which
    proves it without the refutation.

    Selected through {!Qm}'s [cover_backend] parameter (CLI/jobs:
    [--cover-backend sat]); on budget exhaustion {!Qm} degrades back to
    branch and bound under [guard.degrade.sat_to_bnb]. *)

type outcome = {
  chosen : int list;
      (** selected set indices, ascending; a valid cover always *)
  optimal : bool;
      (** [true] when the next-smaller bound was proven unsatisfiable
          or [chosen] met the lower bound; [false] when the budget tripped mid-tightening and [chosen]
          is only the best certificate found *)
}

val independent_set : int list array -> int list
(** [independent_set covered_by] is a set of elements no two of which
    share a covering set: the elements in ascending order of
    [List.length covered_by.(e)] (ties by index), each kept when none
    of its sets covers one kept before.  Returned ascending.  Any cover
    spends a distinct set on each of them, so its size is a lower bound
    on every cover — the one both covering engines of {!Qm} stop at. *)

val min_cover :
  num_sets:int ->
  covered_by:int list array ->
  bound:int ->
  unit ->
  (outcome, Nxc_guard.Error.t) result
(** [min_cover ~num_sets ~covered_by ~bound ()] minimises the number of
    sets chosen such that every element [e] has some chosen set in
    [covered_by.(e)].  [bound] must be a lower bound on every cover
    (the size of {!independent_set}, say): a certificate of that size
    is returned as optimal at once, without refuting the next-smaller
    bound.  Errors: [`Unsat] when an element has no covering set,
    [`Budget_exhausted] when the budget tripped before {e any}
    certificate was found.  Charges the ambient budget.  Deterministic
    (solver seed 0), independent of any pool. *)
