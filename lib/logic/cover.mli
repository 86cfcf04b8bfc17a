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

val distinct_literals : t -> (int * Cube.polarity) list
(** The set of distinct literals appearing in the cover, sorted. *)

val bottom : int -> t
(** Empty cover: constant 0. *)

val eval_int : t -> int -> bool

val union : t -> t -> t
(** Test-only: test/test_logic_base.ml — tests check it directly. *)

val cofactor : t -> int -> Cube.polarity -> t
(** Shannon cofactor with respect to a literal.
    Test-only: test/test_logic_base.ml — tests check it directly. *)

val is_tautology : t -> bool
(** Unate-reduction + Shannon recursion tautology check.
    Test-only: test/test_logic_base.ml — tests check cover constants with
    it. *)

val covers_cube : t -> Cube.t -> bool
(** [covers_cube f c] is true when every minterm of [c] satisfies [f].
    Test-only: test/test_logic_base.ml — tests check it directly. *)

val equivalent : t -> t -> bool
(** Test-only: bench/main.ml and test/test_sat.ml — the bench and the tests
    call it. *)

val complement : t -> t
(** A cover of the complement (unate-recursive paradigm).  The result is
    made single-cube-irredundant but not necessarily minimal.
    Test-only: test/test_logic_base.ml — tests check it directly. *)

val single_cube_containment : t -> t
(** Removes cubes contained in another single cube of the cover.
    Test-only: test/oracle/paths.ml — the reference implementations build on
    it. *)

val pp : Format.formatter -> t -> unit
(** Prints e.g. [x1x2' + x3]; constant covers print as [0] / [1]. *)

val to_string : t -> string
