(** Ternary cubes (products of literals) over [n] Boolean variables.

    A cube constrains each variable to [Pos], [Neg] or leaves it free.
    Cubes are the building blocks of sum-of-products covers and, in this
    project, of the crossbar and lattice synthesis procedures: a product
    of a SOP is exactly a cube.

    Variables are indexed [0 .. n-1] and printed 1-based as [x1, x2, ...]
    to match the paper's notation ([x1x2'] is the cube x1 AND NOT x2).
    The implementation packs a cube into two bit masks, so [n] is limited
    to [max_vars]. *)

type polarity = Pos | Neg

type t
(** A cube over a fixed number of variables. Immutable. *)

val max_vars : int

val n_vars : t -> int

val top : int -> t
(** [top n] is the universal cube over [n] variables (empty product,
    constant 1). *)

val of_literals : int -> (int * polarity) list -> t
(** [of_literals n lits] builds a cube from [(var, polarity)] pairs.
    Raises [Invalid_argument] if a variable is out of range or appears
    with both polarities. *)

val literal : int -> int -> polarity -> t
(** [literal n v p] is the single-literal cube. *)

val literals : t -> (int * polarity) list
(** Constrained variables with their polarity, in increasing variable
    order. *)

val polarity_of : t -> int -> polarity option
(** Polarity of one variable, [None] when free. *)

val is_top : t -> bool

val eval_int : t -> int -> bool
(** [eval_int c m] evaluates under the assignment encoded by the bits of
    [m] (bit [i] is variable [i]). *)

val contains : t -> t -> bool
(** [contains a b] is true when cube [b] implies cube [a] (the set of
    minterms of [b] is included in [a]'s). *)

val intersect : t -> t -> t option
(** Product of two cubes; [None] when they conflict on a variable. *)

val common_literals : t -> t -> (int * polarity) list

val cofactor : t -> int -> polarity -> t option
(** [cofactor c v p] is the cube with variable [v] fixed to [p]:
    [None] if [c] has the opposite literal, otherwise [c] with [v]
    freed. *)

val of_masks : int -> mask:int -> bits:int -> t
(** [of_masks n ~mask ~bits] constrains the variables on the set bits
    of [mask], positive where [bits] is set; [bits] outside [mask] are
    ignored.  The packed form Quine–McCluskey merges on.
    Raises [Invalid_argument] if [mask] has a bit at or above [n]. *)

val compare : t -> t -> int

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
(** Prints e.g. [x1x3'] ; the universal cube prints as [1]. *)
