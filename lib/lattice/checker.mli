(** Equivalence checking between lattices and functions. *)

val equivalent : Lattice.t -> Nxc_logic.Boolfunc.t -> bool
(** Exhaustive check over all [2{^n}] assignments. *)

val computes_dual_lr : Lattice.t -> Nxc_logic.Boolfunc.t -> bool
(** Whether left-to-right connectivity computes [f{^D}] — the duality
    property of Altun–Riedel lattices. *)
