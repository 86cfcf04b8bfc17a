(** Transient (soft) fault tolerance.

    Besides permanent fabrication defects, nano-crossbars suffer
    transient upsets during normal operation — the "fault tolerance to
    ensure the lifetime reliability" axis of Section IV, studied in
    depth by Tunali–Altun (IEEE TCAD 2016), reference [15] of the
    paper.

    The model: during one evaluation, each lattice site independently
    inverts its conduction state with probability [epsilon].  The
    standard architectural remedy is modular redundancy: evaluate [R]
    independent copies and vote.  For small [epsilon], triple modular
    redundancy turns a per-evaluation module error rate [p] into
    roughly [3p^2], which this module's benches reproduce. *)

val module_error_rate :
  Rng.t -> trials:int -> epsilon:float -> Nxc_lattice.Lattice.t ->
  Nxc_logic.Boolfunc.t -> float
(** Monte-Carlo probability that a single faulty evaluation on a random
    input disagrees with the reference function. *)

val nmr_error_rate :
  Rng.t -> copies:int -> trials:int -> epsilon:float ->
  Nxc_lattice.Lattice.t -> Nxc_logic.Boolfunc.t -> float
(** Same, but majority-voting [copies] independent faulty evaluations
    (the voter is assumed hardened, the standard TMR assumption).
    [copies] must be odd. *)

val tmr_prediction : float -> float
(** First-order analytic TMR module error: [3p^2 - 2p^3] for a module
    error rate [p].
    Test-only: bench/main.ml and test/test_extensions.ml — tests and the
    bench compare TMR with it. *)
