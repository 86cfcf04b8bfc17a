(** Diode-resistor crossbar implementation of SOP functions.

    Fig. 3 of the paper: each product of [f] occupies a horizontal
    nanowire (row) and each distinct literal a vertical nanowire
    (column); one extra column collects the output.  A diode is
    programmed at [(row of product P, column of literal l)] when
    [l] appears in [P], and at [(row of P, output column)] for every
    product.  Row lines compute wired-AND of their literals; the output
    column computes wired-OR of the rows.

    Size: [#products x (#distinct literals + 1)] — optimal given the
    SOP, per the paper. *)

type t

val of_cover : Nxc_logic.Cover.t -> t
(** Raises [Invalid_argument] if the cover contains the universal cube
    (constants have no SOP crossbar; test with
    {!Nxc_logic.Cover.is_bottom} / handle upstream) or is empty. *)

val synthesize : Nxc_logic.Boolfunc.t -> t
(** Minimize and build.  Raises [Invalid_argument] on constant
    functions. *)

val dims : t -> Model.dims
(** Rows = products, cols = distinct literals + 1. *)

val size_formula : Nxc_logic.Boolfunc.t -> Model.dims
(** Test-only: bench/main.ml and test/test_crossbar.ml — the bench and the
    tests call it. *)

val placement : t -> Model.placement

val cover : t -> Nxc_logic.Cover.t

val literal_columns : t -> (int * Nxc_logic.Cube.polarity) array
(** Column index [c] carries this literal, for [c < cols - 1]; the last
    column is the output. *)

val eval_int : t -> int -> bool
(** [eval_int xbar m]: the output column under assignment [m] (bit [i]
    is [x{_i+1}]) — the wired-OR of the rows, each row the wired-AND of
    its programmed literal columns. *)

val pp : Format.formatter -> t -> unit
