(** Cardinality constraints over solver literals.

    Sequential-counter (Sinz) encoding, {e one-sided}: the auxiliary
    output [o_j] is forced true whenever at least [j] of the input
    literals are true, but not conversely.  That direction is exactly
    what upper bounds need — asserting [-o_(b+1)] (as a clause or as a
    {!Solver.solve} assumption) forbids more than [b] true inputs — and
    it keeps the encoding incremental: [Nxc_logic.Sat_cover] tightens
    the bound solve after solve by assuming [-o_s] for shrinking [s],
    reusing one counter circuit and every learned clause. *)

val counter : Solver.t -> int list -> max:int -> int array
(** [counter s lits ~max] wires a sequential counter over [lits] and
    returns outputs [o] with [Array.length o = min max (length lits)]:
    in every model, [o.(j - 1)] is true whenever at least [j] of [lits]
    are true (1-based [j]).  Requires [max >= 1]. *)

val at_most : Solver.t -> int list -> k:int -> unit
(** Constrain at most [k] of [lits] to be true ([k >= 0]).  [k = 0]
    adds unit clauses; [k >= length lits] adds nothing.
    Test-only: test/test_sat.ml — tests check the cardinality encoding
    through it. *)

val at_least : Solver.t -> int list -> k:int -> unit
(** Constrain at least [k] of [lits] to be true.  [k <= 0] adds
    nothing; [k > length lits] makes the solver unsatisfiable. *)
