(** Exact defect-aware cell assignment: a Kőnig bound, Bira's greedy
    repair and the {!Nxc_sat} solver, in that order.

    Hybrid BISM (Section IV of the paper) samples and repairs candidate
    mappings; when it gives up it cannot tell "this chip is
    unmappable" from "the sampler was unlucky".  This module decides
    the question exactly.  Choosing [k_rows] physical rows and [k_cols]
    physical columns whose cross product avoids every defect is the
    same question as spare-line repair with [rows - k_rows] spare rows
    and [cols - k_cols] spare columns, and two polynomial bounds settle
    almost every chip before any clause is built:

    + {e Kőnig matching.}  Every repair deletes a vertex cover of the
      defect graph (rows x columns, one edge per defective crosspoint),
      so a maximum matching larger than the spares proves the chip
      unmappable.  The matched crosspoints are the certificate
      ([Unmappable (Matching m)]): anyone can check in linear time that
      each is defective, that no two share a line, and that there are
      more of them than spares.
    + {e Greedy repair.}  {!Bira.greedy_survivors} (the must-repair
      fixpoint, then most-defects-first allocation) either leaves a
      defect-free array, whose first [k_rows x k_cols] lines are the
      witness, or gets stuck, which proves nothing.

    Only the chips neither bound decides reach the solver: one
    selection variable per physical line, a blocking clause per
    defective crosspoint ([-R_r \/ -C_c]), and {!Nxc_sat.Card.at_least}
    bounds on both selections.  Its [Unsat] answer is the one verdict
    backed by the solver alone ([Unmappable Refuted]).

    Every {!Mappable} witness is checked against
    {!Bism.mapping_defect_free} before it is returned.  Both bounds are
    sound and the solver is complete, so an unbudgeted verdict does not
    depend on which of the three answered.  The pre-solve charges one
    step of the ambient budget per matched row and per deleted line;
    when the budget runs out, in the pre-solve or in the solver, the
    verdict degrades to a hybrid-BISM retry under
    [guard.degrade.sat_to_greedy] — unless the budget's policy is
    [Fail], in which case [`Budget_exhausted] is
    reported.  Metrics: [sat.assign_calls], [sat.assign_mappable] (of
    which [sat.assign_greedy_witness] came from the greedy repair),
    [sat.assign_unmappable] (of which [sat.assign_matching_certified]
    carry a matching), [sat.assign_degraded]. *)

type certificate =
  | Matching of (int * int) array
      (** defective [(row, col)] crosspoints, no two sharing a row or a
          column, more of them than [rows - k_rows + cols - k_cols] *)
  | Refuted  (** the SAT solver refuted the encoding *)

type verdict =
  | Mappable of Bism.mapping
      (** witness validated by {!Bism.mapping_defect_free} *)
  | Unmappable of certificate
      (** proven: no defect-free [k_rows x k_cols] selection *)
  | Degraded of Bism.mapping option
      (** budget tripped before a verdict; the mapping (if any) comes
          from the bounded hybrid-BISM fallback and the question is
          undecided *)

val decide :
  ?seed:int ->
  Defect.t ->
  k_rows:int ->
  k_cols:int ->
  (verdict, Nxc_guard.Error.t) result
(** Decide whether a [k_rows x k_cols] logical array fits the chip.
    Deterministic for a fixed [seed] (default 0), pool-independent.
    Errors: [`Invalid_input] on an infeasible geometry,
    [`Budget_exhausted] under a [Fail]-policy budget.
    Test-only: bench/main.ml, test/chaos/chaos.ml, test/test_guard.ml and
    test/test_sat.ml — the bench and the tests call it. *)

type mc = {
  sa_trials : int;
  sa_mapped : int;  (** trials answered {!Mappable} *)
  sa_unmappable : int;  (** trials proven {!Unmappable}, by either certificate *)
  sa_degraded : int;  (** trials that fell back to hybrid BISM *)
}

val monte_carlo :
  ?pool:Nxc_par.Pool.t ->
  Rng.t ->
  trials:int ->
  n:int ->
  profile:Defect.profile ->
  k_rows:int ->
  k_cols:int ->
  mc
(** Mapping-success sweep in the shape of {!Bism.monte_carlo}, through
    {!Rng.map_trials} (determinism and budget contract there).  Trials
    always run {!decide} under a [Degrade] view of the ambient budget,
    as {!Bira.monte_carlo} does, so a trial that exhausts it counts as
    degraded whatever the policy and with or without a pool.  A
    degraded trial that still finds a mapping counts in both
    [sa_mapped] and [sa_degraded]. *)
