(** Lattice synthesis through P-circuit decomposition
    (Section III.B.1; Bernasconi, Ciriani, Frontini, Liberali, Trucco,
    Villa 2016).

    [f = lit(xi=p) f_eq + lit(xi<>p) f_neq + f_int] is mapped to

    {[ OR( AND(L(lit), L(f_eq)), AND(L(lit'), L(f_neq)), L(f_int) ) ]}

    where the component lattices come from {!Altun_riedel} and the
    AND/OR composition from {!Compose}.  The components depend on one
    variable fewer than [f] and have smaller on-sets, so the composed
    lattice is often smaller than direct synthesis — the expectation the
    paper reports as experimentally confirmed. *)

val synthesize_with : var:int -> pol:bool -> Nxc_logic.Boolfunc.t -> Lattice.t
(** Decompose around the given variable/polarity and compose: the
    candidate {!synthesize} scores for [(var, pol)].
    Test-only: test/test_lattice.ml — tests pin the split variable with it. *)

val synthesize : Nxc_logic.Boolfunc.t -> Lattice.t
(** Try every (var, pol) choice and keep the smallest composed lattice
    (the first, in var-major order with [pol = false] first, on ties).
    The two polarities around one variable split [f] into the same
    three components, so each component is synthesized once per
    variable. *)

val synthesize_recursive : ?depth:int -> Nxc_logic.Boolfunc.t -> Lattice.t
(** Recursive P-circuits: the decomposition's
    components are themselves decomposed (up to [depth] levels,
    default 2) when that shrinks
    their lattices — the natural extension of Bernasconi et al.'s
    scheme.  Every branch falls back to direct Altun–Riedel synthesis
    when decomposition does not pay.  [synthesize_recursive ~depth:0]
    is {!synthesize}.
    Test-only: bench/main.ml and test/test_extensions.ml — tests and the
    bench compare it with one-level decomposition. *)
