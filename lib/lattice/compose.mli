(** Function-preserving lattice composition (Section III.B.1).

    The paper recalls from Altun–Riedel that, given lattices for [f] and
    [g], the disjunction [f + g] is obtained by placing them side by
    side separated by a padding column of 0s, and the conjunction
    [f * g] by stacking them separated by a padding row of 1s.  Height /
    width mismatches are equalized by the two padding primitives, both
    of which preserve the computed function for {e any} lattice:

    - appending all-1 rows at the bottom (paths extend through them);
    - appending all-0 columns at the right (never conducting). *)

val pad_to_rows : Lattice.t -> int -> Lattice.t
(** Append all-[One] rows at the bottom up to the requested height.
    Test-only: test/test_extensions.ml and test/test_lattice.ml — tests
    build padded lattices with it. *)

val pad_to_cols : Lattice.t -> int -> Lattice.t
(** Append all-[Zero] columns at the right up to the requested width.
    Test-only: test/test_extensions.ml and test/test_lattice.ml — tests
    build padded lattices with it. *)

val disjunction : Lattice.t -> Lattice.t -> Lattice.t
(** OR of two lattices over the same variable set.
    Size: [max r1 r2] x [c1 + c2 + 1].
    Test-only: test/test_extensions.ml and test/test_lattice.ml — tests
    compose lattices with it. *)

val conjunction : Lattice.t -> Lattice.t -> Lattice.t
(** AND of two lattices over the same variable set.
    Size: [r1 + r2 + 1] x [max c1 c2]. *)

val disjunction_list : Lattice.t list -> Lattice.t
(** OR of one or more lattices; raises [Invalid_argument] on []. *)

val conjunction_list : Lattice.t list -> Lattice.t

val of_literal : int -> int -> Nxc_logic.Cube.polarity -> Lattice.t
(** [of_literal n v p]: the 1x1 lattice computing a literal. *)

val of_const : int -> bool -> Lattice.t

val of_cube : int -> Nxc_logic.Cube.t -> Lattice.t
(** Vertical chain of the cube's literals (a single column).
    Test-only: test/test_lattice.ml — tests check single-cube lattices with
    it. *)

val of_cover : int -> Nxc_logic.Cover.t -> Lattice.t
(** Naive SOP lattice: disjunction of cube columns — the baseline the
    Altun–Riedel construction improves on.
    Test-only: test/test_lattice.ml — tests check it directly. *)
