(** Column folding for diode crossbars.

    Classic PLA folding, in the spirit of the array-optimization work
    the paper builds on (Morgul–Altun, DDECS 2015, reference [11]):
    two literal columns whose literal sets touch {e disjoint} product
    rows can share one physical column (one entered from the top of
    the array, the other from the bottom), cutting array width.

    Optimal folding is NP-hard; this is the standard greedy pairing on
    the column conflict graph, which already recovers most of the
    benefit on two-level covers. *)

type fold = {
  top : int * Nxc_logic.Cube.polarity;  (** literal entering from the top *)
  bottom : int * Nxc_logic.Cube.polarity;
}

type t = {
  original_cols : int;  (** literal columns before folding *)
  folded_cols : int;  (** physical literal columns after folding *)
  folds : fold list;
  unpaired : (int * Nxc_logic.Cube.polarity) list;
}

val fold_columns : Diode.t -> t
(** Greedy maximum pairing of conflict-free literal columns.
    Test-only: bench/main.ml and test/test_extensions.ml — tests and the
    bench measure folding with it. *)

val folded_dims : Diode.t -> Model.dims
(** Dimensions after folding (output column included).
    Test-only: bench/main.ml and test/test_extensions.ml — tests and the
    bench measure folding with it. *)

val valid : Diode.t -> t -> bool
(** Every fold pair is conflict-free: no product row uses both
    literals.  Guaranteed by construction; re-checked in tests.
    Test-only: bench/main.ml and test/test_extensions.ml — the bench and the
    tests call it. *)

val saving : t -> float
(** Fraction of literal columns eliminated.
    Test-only: bench/main.ml and test/test_extensions.ml — the bench and the
    tests call it. *)
