(** Dense truth tables.

    The reference semantic representation for functions of up to
    [max_vars] variables.  Index [m]'s bit [i] is the value of variable
    [i] ([x{_i+1}] in the paper's 1-based notation). *)

type t

val max_vars : int
(** Hard cap on arity (22: a 4 Mbit table). *)

val n_vars : t -> int

val size : t -> int
(** [2{^n}], the number of rows. *)

val of_fun_int : int -> (int -> bool) -> t
(** [of_fun_int n f] tabulates [f] over minterm encodings. *)

val of_bitvec : int -> Bitvec.t -> t
(** [of_bitvec n bits] adopts a [2{^n}]-bit vector (copied) as a table;
    the natural exit of the bit-sliced evaluation kernels, which produce
    whole assignment-indexed vectors at once.
    @raise Invalid_argument when the length is not [2{^n}]. *)

val of_cover : Cover.t -> t

val of_minterms : int -> int list -> t

val eval_int : t -> int -> bool

val equal : t -> t -> bool

val first_diff : t -> t -> int option
(** Smallest minterm on which the two tables disagree, [None] when
    equal.  Word-level scan; the counterexample probe of [Checker]. *)

val compare : t -> t -> int
(** Arity first; at equal arity the table with 0 at the lowest
    minterm where the two differ is smaller, which is the order of the
    ['0'/'1'] strings that list the minterms from 0 up.  Word-level, no
    formatting. *)

val count_ones : t -> int

val is_const : t -> bool option
(** [Some b] when the table is constantly [b]. *)

val minterms : t -> int list

val bnot : t -> t

val band : t -> t -> t

val bor : t -> t -> t

val bsub : t -> t -> t
(** [bsub f g] is f AND NOT g. *)

val implies : t -> t -> bool

val dual : t -> t
(** f{^D}(x) = NOT f(NOT x): the heart of the FET-array and lattice size
    formulas (Figures 3 and 5 of the paper). *)

val cofactor : t -> int -> bool -> t
(** [cofactor f v b] fixes variable [v] to [b]; the result keeps arity
    [n] but no longer depends on [v]. *)

val depends_on : t -> int -> bool

val lift : t -> int -> int array -> t
(** [lift f n map] re-expresses [f] (arity [Array.length map]) as a
    function of [n] variables, where old variable [i] becomes new
    variable [map.(i)]. *)

val random_with_density : int -> seed:int -> density:float -> t
(** Random function whose on-set fraction approximates [density]. *)
