(** Post-synthesis lattice trimming.

    The Altun–Riedel construction is optimal for its row/column product
    structure, but composed lattices (decomposition, D-reduction,
    padding) accumulate slack: whole rows or columns whose removal
    leaves the computed function unchanged, and literal sites that can
    be weakened to constants.  This pass greedily removes such slack,
    re-checking functional equivalence after every candidate edit. *)

val trim : Lattice.t -> Nxc_logic.Boolfunc.t -> Lattice.t
(** Greedy fixpoint of function-preserving row/column deletions and
    site-to-constant weakenings.  The result is equivalent to [f]
    (assuming the input was) and never larger.
    Test-only: bench/main.ml and test/test_extensions.ml — the bench and the
    tests call it. *)
