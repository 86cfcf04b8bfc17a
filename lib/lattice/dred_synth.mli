(** Lattice synthesis of D-reducible functions (Section III.B.2;
    Bernasconi, Ciriani, Frontini, Trucco 2016).

    When [f = chi_A * f_A] for an affine space [A] strictly smaller than
    the Boolean cube, the lattices for [chi_A] (a conjunction of parity
    checks, each synthesized with {!Altun_riedel}) and for the
    projection [f_A] are built independently and composed with a
    padding row of 1s. *)

val synthesize : Nxc_logic.Boolfunc.t -> Lattice.t option
(** [None] when [f] is not D-reducible (or constant 0). *)

val chi_lattice : n:int -> Nxc_logic.Affine.space -> Lattice.t
(** Conjunction of the per-constraint parity lattices.
    Test-only: test/test_lattice.ml — tests check affine-space lattices with
    it. *)
