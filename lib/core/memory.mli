(** WP3 extension: crossbar memory array.

    A word-addressable memory over a crossbar: each row stores one
    word, crosspoint state is the stored bit.  Fabrication defects make
    cells unwritable (stuck at a value); the module implements the
    classic spare-row redundancy repair: rows containing defective
    cells are remapped to spare rows at configuration time — the memory
    counterpart of the defect-unaware flow. *)

type t

val create :
  ?chip:Nxc_reliability.Defect.t -> words:int -> width:int -> spares:int -> unit -> t
(** A memory with [words] addressable rows plus [spares] spare rows on
    a physical crossbar of [words + spares] rows.  When [chip] is given
    it must be at least that large; defective rows are remapped to
    spares eagerly.  Raises [Invalid_argument] if more rows are
    defective than spares can absorb. *)

val repaired_rows : t -> int
(** How many logical rows live on spares. *)

val write : t -> addr:int -> bool array -> unit

val read : t -> addr:int -> bool array
(** Reads reflect cell defects that remained (none, if repair
    succeeded). *)

val defect_free : t -> bool
(** All logical rows are mapped to fully functional physical rows. *)
