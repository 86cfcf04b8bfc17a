(** Sum-of-products covers.

    A cover is a set of cubes over a common variable count; it denotes
    the disjunction of its cubes.  This is the canonical circuit-level
    representation in the paper: nano-crossbar arrays can only realize
    functions in SOP form (Section III.A), so every synthesis procedure
    in this project consumes covers. *)

type t

val make : int -> Cube.t list -> t
(** [make n cubes] builds a cover over [n] variables.  Duplicate cubes
    are removed.  Raises [Invalid_argument] on arity mismatch. *)

val n_vars : t -> int

val cubes : t -> Cube.t list
(** The cubes, in a deterministic order. *)

val num_cubes : t -> int

val num_literals : t -> int
(** Total literal count over all cubes (the paper's "number of literals
    in f" for the diode-array size formula counts distinct literals; see
    {!distinct_literals}). *)

val distinct_literals : t -> (int * Cube.polarity) list
(** The set of distinct literals appearing in the cover, sorted. *)

val bottom : int -> t
(** Empty cover: constant 0. *)

val top : int -> t
(** Cover containing the universal cube: constant 1. *)

val eval_int : t -> int -> bool

val union : t -> t -> t

val product : t -> t -> t
(** Pairwise cube intersections (distribution of AND over OR). *)

val cofactor : t -> int -> Cube.polarity -> t
(** Shannon cofactor with respect to a literal. *)

val is_tautology : t -> bool
(** Unate-reduction + Shannon recursion tautology check.
    Test-only: tests check cover constants with it. *)

val covers_cube : t -> Cube.t -> bool
(** [covers_cube f c] is true when every minterm of [c] satisfies [f]. *)

val equivalent : t -> t -> bool

val complement : t -> t
(** A cover of the complement (unate-recursive paradigm).  The result is
    made single-cube-irredundant but not necessarily minimal. *)

val irredundant : t -> t
(** Removes cubes covered by the rest of the cover. *)

val single_cube_containment : t -> t
(** Removes cubes contained in another single cube of the cover. *)

val minterms : t -> int list
(** Sorted list of satisfying assignments; exponential, small [n] only. *)

val of_minterms : int -> int list -> t

val pp : Format.formatter -> t -> unit
(** Prints e.g. [x1x2' + x3]; constant covers print as [0] / [1]. *)

val to_string : t -> string
