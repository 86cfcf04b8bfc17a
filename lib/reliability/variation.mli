(** Parametric variation tolerance (Section IV).

    Self-assembled crosspoints exhibit extreme parameter spread; we
    model each crosspoint's delay as an independent log-normal variable
    with unit median and spread [sigma].  The delay of a configured
    crossbar is the worst observed-row chain delay (series devices add;
    the wired-OR takes the slowest contributing row — a conservative
    read model).

    Variation {e tolerance} is modelled the way the paper's
    reprogrammability argument suggests: among several functionally
    equivalent placements (e.g. different defect-free selections on the
    same chip), pick the one whose measured delay is smallest.  The
    benches quantify the gain over an arbitrary choice. *)

type delays = float array array

val sample : Rng.t -> rows:int -> cols:int -> sigma:float -> delays
(** Per-crosspoint log-normal delay factors, median 1.0.
    Test-only: bench/main.ml and test/test_reliability.ml — the bench and
    the tests call it. *)

val config_delay : delays -> Fault_model.config -> float
(** Worst observed-row sum of programmed-device delays.
    Test-only: test/test_reliability.ml — tests check configuration delays
    with it. *)

val selection_delay : delays -> Defect_flow.selection -> float
(** Delay of the fully programmed sub-crossbar given by a selection —
    the pessimistic application-independent figure.
    Test-only: bench/main.ml and test/test_reliability.ml — tests and the
    bench time selections with it. *)

type stats = { mean : float; std : float; p95 : float; worst : float }

val monte_carlo :
  Rng.t -> trials:int -> sigma:float -> Fault_model.config -> stats
(** Distribution of {!config_delay} over independently varied chips.
    Test-only: bench/main.ml and test/test_reliability.ml — the bench and
    the tests call it. *)

val pick_fastest :
  delays -> Defect_flow.selection list -> Defect_flow.selection * float
(** Variation-aware mapping: the candidate with the smallest
    {!selection_delay}.  Raises [Invalid_argument] on [].
    Test-only: bench/main.ml and test/test_reliability.ml — tests and the
    bench select fast chips with it. *)

val pp_stats : Format.formatter -> stats -> unit
(** Test-only: bench/main.ml — a bench experiment reports it. *)
