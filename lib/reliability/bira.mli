(** Built-in redundancy analysis (BIRA) with spare rows and columns.

    Industrial memories pair BIST with {e repair}: the array is
    fabricated with [spare_rows] extra word lines and [spare_cols]
    extra bit lines, and after test a redundancy-analysis engine picks
    which defective lines to replace so the chip still presents a
    defect-free logical array.  The same idiom transfers to
    nano-crossbars (Section IV's fault-tolerance story): chips that the
    blind/greedy/hybrid BISM schemes declare unmappable can often be
    rescued by substituting a handful of spare lines.

    The physical chip is a {!Defect.t} of
    [(rows + spare_rows) x (cols + spare_cols)] crosspoints — the
    spares are ordinary lines at the high indices and may themselves be
    defective.  A {e repair} is a set of at most [spare_rows] rows and
    [spare_cols] columns of the full physical array whose removal
    leaves no defective crosspoint; the surviving lines then furnish
    the [rows x cols] logical array, logical line [i] being the [i]-th
    surviving physical line.

    Analysis runs in the classical two phases:

    + {e must-repair}: a surviving row containing more defects than
      the column dimension has remaining spares can never be fixed by
      column substitutions alone, so it {e must} be replaced (and
      symmetrically for columns).  Applied to a fixpoint; overflow of
      either spare budget here proves the chip unrepairable.
    + {e spare allocation} for the leftover defects: either an exact
      branch-and-bound over (delete row | delete column) decisions that
      finds a repair using the fewest lines, or a greedy
      most-defects-first pass.  The exact search consumes one guard
      step per node and degrades to greedy on exhaustion (counted as
      [guard.degrade.bira_exact_to_greedy]) unless the budget's policy
      is [Fail], in which case [`Budget_exhausted] is reported.

    The {e Kőnig bound} ties the phases together: every repair deletes
    a vertex cover of the defect graph (rows x columns, one edge per
    defective crosspoint), so it replaces at least as many lines as a
    maximum matching of that graph has edges.  The branch and bound
    prunes a node when the matching of its uncovered defects exceeds
    its remaining spares, or when the lines it has used plus that
    matching reach the best repair found so far.  Such a subtree holds
    no strictly smaller repair, so the search returns the same first
    minimum as without the bound, in far fewer nodes.  A greedy dead end
    is reported as a proof only when the same bound certifies it. *)

type mode = Greedy | Exact

type solution = {
  repair_rows : int list;  (** physical rows replaced, ascending *)
  repair_cols : int list;  (** physical columns replaced, ascending *)
  must_rows : int list;  (** the subset of {!repair_rows} forced by
                             must-repair analysis *)
  must_cols : int list;
  degraded : bool;  (** exact allocation fell back to greedy *)
}

val analyze :
  ?mode:mode ->
  Defect.t ->
  spare_rows:int ->
  spare_cols:int ->
  (solution, Nxc_guard.Error.t) result
(** [analyze chip ~spare_rows ~spare_cols] treats the last [spare_rows]
    rows and [spare_cols] columns of [chip] as spares and searches for
    a repair of the remaining logical array.

    Errors: [`Invalid_input] when the spare counts are negative or
    leave no logical array; [`Unsat] when no repair was found.  That is
    a proof of unrepairability after a must-repair overflow, an
    exhaustive exact search, or a greedy dead end whose post-must-repair
    defects have a matching larger than the spares left (the message
    names the matching).  A greedy dead end the matching does not
    certify is a heuristic miss, not a proof: its message says so, and
    the chip may still be repairable.  [`Budget_exhausted] only
    when the ambient budget trips under policy [Fail].  Under the
    default [Degrade] policy exhaustion of the exact search falls back
    to greedy and marks the solution [degraded].  The branch and bound
    also stops after 200,000 nodes independently of the budget, like
    {!Defect_flow.exact_max}.
    Test-only: bench/main.ml, test/chaos/chaos.ml, test/test_guard.ml,
    test/test_repair.ml and test/test_sat.ml — the bench and the tests call
    it. *)

(** {2 The phases as a pre-solve}

    {!Sat_assign} runs the Kőnig bound and the greedy phases ahead of
    its SAT solver.  Neither bumps a [bira.*] counter; both charge one
    step of the ambient budget per matched row or deleted line. *)

val defect_matching : Defect.t -> (int * int) array option
(** A maximum matching of the chip's defect graph as [(row, col)]
    crosspoints, ascending by row: each is defective and no two share a
    row or a column.  [None] when the budget runs out. *)

val greedy_survivors :
  Defect.t ->
  spare_rows:int ->
  spare_cols:int ->
  [ `Survivors of int array * int array | `Stuck | `Out_of_budget ]
(** The must-repair fixpoint and greedy allocation of {!analyze}
    [~mode:Greedy] on [chip] with these budgets.  [`Survivors (rows,
    cols)] lists the lines left in ascending order; no crosspoint among
    them is defective.  [`Stuck] covers a must-repair overflow and a
    greedy dead end alike, so callers must treat it as undecided. *)

(** {2 Monte-Carlo harness}

    The repair arm of the BISM comparison benches: over a population of
    random chips, how many can be rescued, and at what spare cost? *)

type stats = {
  repaired : bool;
  spare_rows_used : int;
  spare_cols_used : int;
  must_rows_count : int;
  must_cols_count : int;
  degraded : bool;  (** the exact search degraded to greedy *)
}

type mc = {
  mc_trials : int;
  mc_repaired : int;
  mc_avg_spares : float;  (** spare lines used per repaired chip *)
  mc_must_lines : int;  (** must-repair lines across all trials *)
  mc_degraded : int;  (** trials whose exact search degraded *)
}

val monte_carlo :
  ?pool:Nxc_par.Pool.t ->
  ?mode:mode ->
  Rng.t ->
  trials:int ->
  rows:int ->
  cols:int ->
  spare_rows:int ->
  spare_cols:int ->
  profile:Defect.profile ->
  mc * stats array
(** [monte_carlo rng ~trials ~rows ~cols ~spare_rows ~spare_cols
    ~profile] fabricates [trials] random
    [(rows + spare_rows) x (cols + spare_cols)] chips and runs
    {!analyze} on each, through {!Rng.map_trials} (determinism and
    budget contract there).  Trials always run under a [Degrade] view
    of the ambient budget (a sweep must wind down, not abort), so only
    [`Unsat]/degraded outcomes appear in the stats.
    @raise Invalid_argument when [trials <= 0], a dimension is
    non-positive, or a spare count is negative. *)
