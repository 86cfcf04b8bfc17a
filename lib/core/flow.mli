(** End-to-end flow (the paper's Fig. 2 pipeline): synthesize a
    function, self-map the resulting lattice onto a partially defective
    physical crossbar with BISM, and verify the mapped circuit still
    computes the function under the chip's remaining defects.

    Robustness: a lattice larger than the chip is reported as a clean
    non-functional result (never an exception), and every entry point
    charges the ambient {!Nxc_guard.Budget} so a
    hostile chip cannot make the mapping loops spin forever. *)

type result = {
  impl : Synth.t;
  bism : Nxc_reliability.Bism.stats;
  mapping : Nxc_reliability.Bism.mapping option;
  functional : bool;
      (** the lattice, evaluated with the defects of its mapped physical
          region applied to its sites, still equals the function *)
}

val lattice_with_defects :
  Nxc_lattice.Lattice.t ->
  Nxc_reliability.Defect.t ->
  Nxc_reliability.Bism.mapping ->
  Nxc_lattice.Lattice.t
(** Apply the chip's defects to the mapped sites: a stuck-open
    crosspoint forces the site to constant 0, a stuck-closed or bridge
    crosspoint to constant 1 (conservative).
    Test-only: test/test_core.ml and test/test_extensions.ml — tests build
    faulty lattices with it. *)

val run :
  Nxc_reliability.Rng.t ->
  chip:Nxc_reliability.Defect.t ->
  Nxc_logic.Boolfunc.t ->
  result
(** {!run_result} with the one scheme [Hybrid 10] under a [Degrade]
    view of the ambient budget, so it always returns.  An infeasible or
    unmappable chip yields [{ mapping = None; functional = false; _ }]. *)

val run_result :
  ?scheme:Nxc_reliability.Bism.scheme ->
  Nxc_reliability.Rng.t ->
  chip:Nxc_reliability.Defect.t ->
  Nxc_logic.Boolfunc.t ->
  (result, Nxc_guard.Error.t) Stdlib.result
(** Like {!run} with graceful degradation: when [scheme] is omitted the
    mapping escalates Blind → Hybrid → Greedy, each rung taking a slice
    of a 1,000-configuration cap (250, 250, then 500) and counted under
    [guard.degrade.flow_escalation] / [flow.escalations].  The returned
    statistics aggregate all rungs.  A partial outcome (no mapping
    found) is still [Ok] with [functional = false]; only a [Fail]-policy
    budget exhausting before a mapping is found turns into
    [`Budget_exhausted]. *)
