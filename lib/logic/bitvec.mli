(** Packed bit vectors.

    Backing store for truth tables and defect masks.  Bits are indexed
    from [0] to [length - 1]; out-of-range access raises
    [Invalid_argument]. *)

type t

val create : int -> bool -> t
(** [create len init] is a vector of [len] bits, all equal to [init]. *)

val length : t -> int

val get : t -> int -> bool

val set : t -> int -> bool -> unit

val copy : t -> t

val equal : t -> t -> bool

val popcount : t -> int
(** Number of set bits. *)

val is_all : bool -> t -> bool
(** [is_all b v] is true when every bit of [v] equals [b]. *)

val init : int -> (int -> bool) -> t

val fold_true : (int -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over the indices of set bits, in increasing order. *)

val lnot : t -> t

val land_ : t -> t -> t

val lor_ : t -> t -> t

(** {1 Word-level access}

    Bits are packed into native ints as described in {!Bitslice}:
    bit [i] lives in word [i / word_bits] at offset [i mod word_bits],
    with unused tail bits kept zero.  These entry points let evaluation
    kernels produce or consume whole words without per-bit traffic. *)

val of_words : int -> int array -> t
(** [of_words len ws] builds a [len]-bit vector from a word array of
    exactly [Bitslice.words_for len] entries (copied, then tail
    normalized).  @raise Invalid_argument on a size mismatch. *)

val first_diff : t -> t -> int option
(** Index of the lowest bit where the two vectors differ; [None] when
    equal.  The vectors must have equal length. *)
