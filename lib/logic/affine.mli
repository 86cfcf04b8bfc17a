(** GF(2) linear algebra and D-reducible functions.

    A function [f] is {e D-reducible} (Bernasconi–Ciriani, TODAES 2011)
    when its ON-set is contained in an affine space [A] strictly smaller
    than the whole Boolean cube; then [f = chi_A AND f_A] where [chi_A]
    is the characteristic function of [A] and [f_A] the projection of
    [f] onto [A].  Section III.B.2 of the paper exploits this to
    synthesize smaller lattices. *)

type space = {
  n : int;
  constraints : (int * bool) list;
      (** Parity checks [(mask, rhs)]: a point [x] lies in the space iff
          for every check, [parity (x AND mask) = rhs].  The masks form
          a GF(2)-independent set in reduced row-echelon form. *)
  pivot_vars : int list;
      (** One pivot variable per constraint, determined by the others. *)
  free_vars : int list;
      (** The remaining variables; they parametrize the space. *)
}

val dimension : space -> int
(** Number of free variables: [log2] of the space's cardinality.
    Test-only: bench/main.ml and test/test_logic_algs.ml — the bench and the
    tests call it. *)

val mem : space -> int -> bool
(** Test-only: test/oracle/logic_ref.ml and test/test_logic_algs.ml — the
    reference implementations build on it. *)

val affine_hull : n:int -> int list -> space
(** Smallest affine space containing the given nonempty point set.
    Test-only: test/test_lattice.ml and test/test_logic_algs.ml — tests use
    it to check D-reduction's affine spaces. *)

val chi : space -> Truth_table.t
(** Characteristic function of the space (over [n] variables). *)

val constraint_function : int -> int * bool -> Truth_table.t
(** [constraint_function n (mask, rhs)] is the single parity check
    [parity(x AND mask) = rhs] as a function of [n] variables. *)

type reduction = {
  space : space;
  projection : Truth_table.t;
      (** [f_A] as a function of the free variables only (arity
          [dimension space]), free variables ordered as in
          [space.free_vars]. *)
}

val d_reduction : Boolfunc.t -> reduction option
(** [Some r] when [f] is D-reducible (hull strictly smaller than the
    full cube and [f] not constant-0); [None] otherwise. *)

val reconstruct : n:int -> reduction -> Truth_table.t
(** Rebuild [chi_A AND f_A] over the original variables — used by tests
    to validate a reduction.
    Test-only: test/test_logic_algs.ml — tests check it directly. *)
