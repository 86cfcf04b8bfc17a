(** Exact defect-aware cell assignment via the {!Nxc_sat} solver.

    Hybrid BISM (Section IV of the paper) samples and repairs candidate
    mappings; when it gives up it cannot tell "this chip is
    unmappable" from "the sampler was unlucky".  This module decides
    the question exactly: choosing [k_rows] physical rows and [k_cols]
    physical columns whose cross product avoids every defect is a
    balanced-biclique problem, encoded here with one selection variable
    per physical line, a blocking clause per defective crosspoint
    ([-R_r \/ -C_c]), and {!Nxc_sat.Card.at_least} bounds on both
    selections.

    A {!Sat} answer comes with a witness {!Bism.mapping} (checked
    against {!Bism.mapping_defect_free} before it is returned); an
    {!Unsat} answer is a proof of unmappability.  On budget exhaustion
    the verdict degrades to a hybrid-BISM retry under
    [guard.degrade.sat_to_greedy] — unless the guard's policy is
    [Fail], in which case [`Budget_exhausted] is reported.  Metrics:
    [sat.assign_calls], [sat.assign_mappable], [sat.assign_unmappable],
    [sat.assign_degraded]. *)

type verdict =
  | Mappable of Bism.mapping
      (** witness validated by {!Bism.mapping_defect_free} *)
  | Unmappable  (** proven: no defect-free [k_rows x k_cols] selection *)
  | Degraded of Bism.mapping option
      (** budget tripped mid-solve; the mapping (if any) comes from the
          bounded hybrid-BISM fallback and the question is undecided *)

val decide :
  ?guard:Nxc_guard.Budget.t ->
  ?seed:int ->
  Defect.t ->
  k_rows:int ->
  k_cols:int ->
  (verdict, Nxc_guard.Error.t) result
(** Decide whether a [k_rows x k_cols] logical array fits the chip.
    Deterministic for a fixed [seed] (default 0), pool-independent.
    Errors: [`Invalid_input] on an infeasible geometry,
    [`Budget_exhausted] under a [Fail]-policy guard. *)

type mc = {
  sa_trials : int;
  sa_mapped : int;  (** trials answered {!Mappable} *)
  sa_unmappable : int;  (** trials proven {!Unmappable} *)
  sa_degraded : int;  (** trials that fell back to hybrid BISM *)
}

val monte_carlo :
  ?pool:Nxc_par.Pool.t ->
  ?guard:Nxc_guard.Budget.t ->
  Rng.t ->
  trials:int ->
  n:int ->
  profile:Defect.profile ->
  k_rows:int ->
  k_cols:int ->
  mc
(** Mapping-success sweep in the shape of {!Bism.monte_carlo}, through
    {!Rng.map_trials} (determinism and budget contract there).  A degraded trial that still
    finds a mapping counts in both [sa_mapped] and [sa_degraded]. *)
