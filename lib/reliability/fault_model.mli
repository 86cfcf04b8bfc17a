(** Logic-level fault universe for a reconfigurable crossbar.

    The testable abstraction is a {e configured} diode-style crossbar:
    a grid whose crosspoints may be programmed, each row computing the
    wired-AND of its programmed columns (an empty row floats to 1
    through its pull-up), and an output line computing the wired-OR of
    the {e observed} rows.  BIST reprograms this configuration at will
    (Section IV.A: reprogrammability is the opportunity the project
    exploits) and applies input vectors to the columns.

    The fault universe covers the paper's list — stuck-at, bridging,
    open and functional faults — concretely:

    - crosspoint stuck-open / stuck-closed (functional faults of the
      programmable device);
    - row / column line stuck-at-0 / stuck-at-1;
    - open output device of a row;
    - AND-type bridges between adjacent rows and adjacent columns. *)

type config = {
  rows : int;
  cols : int;
  programmed : bool array array;
  observed : bool array;  (** which rows drive the output line *)
}

val empty_config : rows:int -> cols:int -> config

val single_term : rows:int -> cols:int -> int -> config
(** [single_term ~rows ~cols r]: row [r] fully programmed and solely
    observed — the paper's single-term test function.
    Test-only: bench/main.ml, test/test_extensions.ml and
    test/test_reliability.ml — tests and the bench build BIST configs with
    it. *)

type fault =
  | Xpoint_stuck_open of int * int
  | Xpoint_stuck_closed of int * int
  | Row_stuck of int * bool
  | Col_stuck of int * bool
  | Output_open of int
  | Bridge_rows of int  (** rows [r] and [r+1] short (wired-AND) *)
  | Bridge_cols of int  (** cols [c] and [c+1] short (wired-AND) *)

val universe : rows:int -> cols:int -> fault list
(** Every modelled fault of an [rows x cols] array. *)

val num_faults : rows:int -> cols:int -> int

(** {2 Batched test-vector application}

    The word-parallel path of the BIST/BISM stack.  A {!block} packs a
    whole vector set in the {!Nxc_logic.Bitslice} layout — one bit lane
    per vector, one word array per column line — and {!eval_block}
    applies a fault set with one word operation standing in for up to
    [Bitslice.word_bits] scalar evaluations.  Packing is done once per
    test plan; the per-fault sweep then costs one kernel pass per
    configuration instead of one scalar evaluation per vector. *)

type block
(** An immutable packed vector set.  Safe to share between domains:
    evaluation only reads it. *)

val pack_vectors : cols:int -> bool array array -> block
(** [pack_vectors ~cols vectors] packs [vectors] (each of length
    [cols]) into column words; vector [j] occupies bit lane [j].
    Raises [Invalid_argument] on a length mismatch or [cols <= 0]. *)

val block_words : block -> int
(** Words per column line ([Bitslice.words_for] of the vector count) —
    the number of output words {!eval_block} writes. *)

val eval_block : faults:fault list -> config -> block -> into:int array -> unit
(** [eval_block ~faults cfg blk ~into] writes the faulty outputs of
    every packed vector into the first [block_words blk] words of
    [into]: bit lane [j] of the output is the array's output on
    [vector_j] with all of [faults] present at once.  Faults are
    layered: line stucks override bridge values, which override
    device-level effects.  Output words are normalized
    (lanes at or beyond the vector count are zero), so callers may
    XOR them against expectation words and popcount/scan the result
    directly.  Uses the per-domain scratch — no allocation, and safe
    under [Nxc_par].  Raises [Invalid_argument] when the block width
    differs from [cfg.cols] or [into] is too small. *)

val of_defect : Defect.t -> int -> int -> fault option
(** The logic-level fault a fabrication defect at [(r, c)] induces:
    stuck-open / stuck-closed crosspoints map directly, a bridge maps to
    [Bridge_cols]/[Bridge_rows] at that position (clamped to the array
    edge).
    Test-only: test/test_reliability.ml — tests map defects to faults with
    it. *)

val fault_row : fault -> int option
val fault_col : fault -> int option

val pp_fault : Format.formatter -> fault -> unit
