(** Built-in self-repair (BISR): the address-remap table that makes a
    {!Bira} repair effective.

    After redundancy analysis decides {e which} physical lines to
    replace, the chip still has to present a dense [rows x cols]
    logical array.  BISR does this with a remap table: logical row [i]
    is routed to the [i]-th surviving physical row (in ascending
    physical order), and likewise for columns — replaced lines simply
    disappear from the address space and the spares slide in at the
    top.  This is the soft-repair idiom of memory BISR (fuse/register
    remap), not a physical rewiring.

    A remap table is itself a {!Bism.mapping} over the physical chip,
    so the existing application-dependent BIST oracle
    {!Bism.mapping_defect_free} validates it, and an inner BISM mapping
    of a [k x k] logical function onto the repaired array composes with
    it ({!compose}) into a single physical placement. *)

type t = private {
  rows : int;  (** logical rows presented after repair *)
  cols : int;
  phys_rows : int;  (** physical dimensions of the repaired chip *)
  phys_cols : int;
  row_map : int array;  (** logical row -> physical row, ascending *)
  col_map : int array;
}

val build :
  Defect.t -> rows:int -> cols:int -> Bira.solution ->
  (t, Nxc_guard.Error.t) result
(** [build chip ~rows ~cols sol] turns a {!Bira.analyze} solution into
    a remap table for a [rows x cols] logical array: the repaired
    physical lines of [sol] are dropped and the first [rows]/[cols]
    surviving lines (ascending) become the logical address space.
    [`Invalid_input] when the chip does not retain at least
    [rows]/[cols] surviving lines, or a repaired index is out of
    range. *)

val row : t -> int -> int
(** [row t i] is the physical row behind logical row [i].
    @raise Invalid_argument when [i] is outside [0 .. rows-1]. *)

val col : t -> int -> int

val to_mapping : t -> Bism.mapping
(** The remap table as a BISM placement of the full logical array onto
    the physical chip — feed it to {!Bism.mapping_defect_free}.
    Test-only: tests check remaps through BISM's defect-free check. *)

val defect_free : Defect.t -> t -> bool
(** BIST oracle over the remap: every crosspoint the logical array can
    reach is defect-free.  This is the acceptance check for a repair —
    {!Bira} success must imply it. *)

val compose : t -> Bism.mapping -> Bism.mapping
(** [compose t inner] routes an [inner] BISM mapping (logical function
    onto the {e repaired} [rows x cols] array) through the remap,
    yielding a placement directly onto the physical chip.
    @raise Invalid_argument when [inner] addresses a line outside the
    repaired array. *)
