(** FET (CMOS-style) crossbar implementation of SOP functions.

    Fig. 3 of the paper: each product of [f] and of its dual [f{^D}]
    occupies a vertical nanowire (column) and each distinct literal a
    horizontal gate line (row).

    - a {e pull-up} column for a product [P] of [f] is a series chain of
      FETs gated by the literals of [P]: it conducts (drives the output
      to 1) exactly when [P] is satisfied;
    - a {e pull-down} column for a product [Q] of [f{^D}] is a series
      chain gated by the {e complements} of [Q]'s literals: it conducts
      (drives 0) exactly when every literal of [Q] is false, i.e. when
      [Q] witnesses [f{^D}](not x) = 1, i.e. [f](x) = 0.

    Duality makes the two networks complementary: on every input
    exactly one of them conducts, which {!eval_int} asserts — the
    structural analogue of CMOS's static correctness.

    Size: [#literals x (#products(f) + #products(f{^D}))]. *)

type t

val of_covers :
  n:int -> f_cover:Nxc_logic.Cover.t -> dual_cover:Nxc_logic.Cover.t -> t
(** Raises [Invalid_argument] on degenerate (constant) covers. *)

val synthesize : Nxc_logic.Boolfunc.t -> t
(** Minimize [f] and [f{^D}] and build.  Raises [Invalid_argument] on
    constant functions. *)

val dims : t -> Model.dims

val size_formula : Nxc_logic.Boolfunc.t -> Model.dims
(** Test-only: bench/main.ml and test/test_crossbar.ml — the bench and the
    tests call it. *)

val placement : t -> Model.placement
(** Programmed crosspoints of both networks on the shared grid; the
    pull-up columns come first. *)

val eval_int : t -> int -> bool
(** [eval_int xbar m]: [true] when the pull-up network conducts under
    assignment [m] (bit [i] is [x{_i+1}]).  Asserts that exactly one of
    the two networks conducts. *)

val pp : Format.formatter -> t -> unit
