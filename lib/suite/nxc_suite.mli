(** Benchmark function suite.

    Programmatically defined stand-ins for the PLA benchmarks used by
    the switching-lattice literature (see DESIGN.md for the
    substitution rationale): parities, majorities, symmetric
    rd53/rd73-style counter outputs, arithmetic slices, comparators and
    seeded random functions.  Definitions are exact by construction and
    span 2–9 inputs, the range where exact minimization and exhaustive
    lattice checking remain feasible. *)

type benchmark = {
  name : string;
  description : string;
  func : Nxc_logic.Boolfunc.t;
}

type multi = {
  multi_name : string;
  multi_description : string;
  outputs : Nxc_logic.Boolfunc.t list;  (** share one input space *)
}

val all : unit -> benchmark list
(** The full single-output suite, deterministic order. *)

val core : unit -> benchmark list
(** The subset used by the synthesis benches: small enough for exact
    minimization and exhaustive equivalence everywhere. *)

val d_reducible : unit -> benchmark list
(** Members constructed to be D-reducible (for experiment E5). *)

val multi_output : unit -> multi list
(** rd53, rd73, adders, multiplier — as output vectors.
    Test-only: bench/main.ml, test/test_core.ml and test/test_extensions.ml
    — tests and the bench use its multi-output set. *)

val by_name : string -> benchmark option

val majority : int -> benchmark
(** [majority n] requires odd [n].
    Test-only: bench/main.ml — tests and the bench use it as a fixed
    benchmark. *)

val random_function : n:int -> seed:int -> density:float -> benchmark
(** Test-only: bench/main.ml — the bench draws random functions with it. *)
