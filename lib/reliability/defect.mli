(** Fabrication defect maps.

    Self-assembled nano-crossbars suffer high crosspoint defect
    densities (Section IV).  A defect map records, per crosspoint,
    whether fabrication left it unusable and how:

    - [Stuck_open]: the crosspoint can never be programmed ON;
    - [Stuck_closed]: it is permanently ON;
    - [Bridge]: it shorts to a neighbouring line.

    Maps are generated from a seeded {!Rng.t} with either a uniform
    density or a clustered profile (defects concentrate around
    contamination centers), matching the paper's "various defect density
    distributions across different crossbars" concern for hybrid
    BISM. *)

type kind = Stuck_open | Stuck_closed | Bridge

type t

type profile = {
  density : float;  (** expected defective fraction of crosspoints *)
  frac_open : float;
      (** share of defects that are stuck-open (the dominant kind in
          nanowire crossbars); the rest split between stuck-closed and
          bridges per [frac_closed]. *)
  frac_closed : float;
  clusters : int;  (** 0 = uniform; otherwise contamination centers *)
  cluster_radius : float;  (** radius as a fraction of the array side *)
}

val uniform : float -> profile
(** Uniform profile with the customary 80/15/5 open/closed/bridge
    split. *)

val clustered : float -> profile
(** [density] spread around three contamination centers. *)

val generate : Rng.t -> rows:int -> cols:int -> profile -> t
(** The profile is checked first: [density], [frac_open] and
    [frac_closed] must lie in [[0, 1]] (the two fractions summing to at
    most 1), [clusters] and [cluster_radius] must be non-negative.  A
    profile outside these ranges would not crash generation — it would
    silently produce a nonsense map.
    @raise Invalid_argument on non-positive dimensions or a rejected
    profile. *)

val rows : t -> int
val cols : t -> int

val kind_at : t -> int -> int -> kind option

val is_defective : t -> int -> int -> bool

val actual_density : t -> float

val perfect : rows:int -> cols:int -> t
(** A defect-free map. *)

val with_defect : t -> int -> int -> kind -> t
(** Functional update — used by tests to build precise scenarios. *)

(** {2 Word-packed defect bitmaps}

    Each row of the map is mirrored as a word bitmap in the
    {!Nxc_logic.Bitslice} layout (bit [c] set iff crosspoint [(r, c)]
    is defective), maintained by every constructor.  Selection checks —
    the BISM oracle probing all [k_rows x k_cols] crosspoints of a
    candidate mapping — then cost one AND per word per selected row
    instead of one probe per crosspoint. *)

val word_cols : t -> int
(** Words per row bitmap ([Bitslice.words_for (cols t)]). *)

val row_words : t -> int -> int array
(** [row_words t r] — row [r]'s defect bitmap.  The returned array is
    the map's own storage: treat it as read-only.
    @raise Invalid_argument when [r] is out of range. *)

val selection_defect_free : t -> sel_rows:int array -> sel_cols:int array -> bool
(** Whether every crosspoint [(r, c)] with [r] in [sel_rows] and [c] in
    [sel_cols] is defect-free — the word-parallel equivalent of probing
    {!is_defective} over the cross product.  Uses per-domain scratch
    (no allocation, safe under [Nxc_par]).
    @raise Invalid_argument on an out-of-range index. *)
