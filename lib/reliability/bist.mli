(** Built-in self-test (Section IV.A).

    The plan combines two families of test configurations, both built
    from the paper's single-term idea (every active row computes one
    product so that any sensitized fault propagates to the wired-OR
    output):

    {b Group configurations} — for each bit [b] of the row index, the
    rows with bit [b] set (and, in a second configuration, clear) are
    fully programmed and observed.  Vectors: the all-ones pattern
    (expected 1) and one walking-0 per column (expected 0).  An
    expected-0 test cannot be masked by the wired-OR, so a single
    stuck-open anywhere in the group flips the output; the set of
    failing groups binary-encodes the faulty row — this is what makes
    the number of configurations {e logarithmic} in the number of rows.
    These also catch column/row stuck-at-1, column stuck-at-0 and
    crosspoint stuck-open faults.

    {b Diagonal configurations} — each active row carries exactly one
    device, rows in the same batch on distinct columns; inactive rows
    hold a device on a guard column that every vector drives to 0.
    Vectors: one one-hot per active row (expected 1).  Because exactly
    one row can be high, expected-1 tests are isolation-safe; they catch
    crosspoint stuck-closed, dead rows (stuck-at-0), open output
    devices and row/column bridges.  Two column-assignment shifts ensure
    every crosspoint is exercised unprogrammed at least once and every
    column serves as a probe.

    Together the two families detect 100% of the
    {!Fault_model.universe} — asserted by the test suite for a range of
    array shapes, the paper's "exhaustive coverage" claim. *)

type vector_test = { vector : bool array; expected : bool }

(** Structural role of a configuration — {!Bisd} uses it to decode
    syndromes into resource locations. *)
type kind =
  | Group of { bit : int; value : bool }
  | Diagonal of { shift : int; batch : int; offset : int }

type test_config = {
  label : string;
  kind : kind;
  config : Fault_model.config;
  tests : vector_test list;
}

type plan = { rows : int; cols : int; configs : test_config list }

val plan : rows:int -> cols:int -> plan
(** Requires [cols >= 2] and [rows >= 1]. *)

val num_configs : plan -> int

val num_vectors : plan -> int

val syndrome : plan -> Fault_model.fault -> (int * int) list
(** Failing [(configuration index, vector index)] pairs of a faulty
    array: positions where the faulty output differs from the fault-free
    expectation, in ascending order.  Equivalent to
    [syndrome_packed (pack p)]; sweeps over many faults should {!pack}
    once and reuse the packed plan. *)

val coverage : plan -> Fault_model.fault list -> float * Fault_model.fault list
(** Fraction detected and the undetected remainder. *)

val minimize_vectors : plan -> Fault_model.fault list -> plan * int
(** Greedy test-set compaction (the paper's "minimality of test vector
    set"): keep only vectors needed to detect every given fault the
    full plan detects, preferring high-coverage vectors.  Returns the
    compacted plan (configurations left without vectors are dropped)
    and the number of vectors removed.  Coverage of the given fault
    list is preserved exactly.
    Test-only: test/test_extensions.ml — tests check the paper's minimal
    test-set claim. *)

(** {2 Packed plans}

    The word-parallel hot path.  {!pack} freezes each configuration's
    vector set into a {!Fault_model.block} (bit lane = vector index)
    together with word-packed expectations, asserting fault-free
    soundness once per configuration; a syndrome then costs one
    {!Fault_model.eval_block} per configuration — up to
    [Bitslice.word_bits] vectors per word operation — and failing pairs
    are recovered by XOR-ing observed against expected words and
    walking set bits in ascending lane order.  Results are bit-identical
    to one scalar evaluation per (configuration, vector) pair, including
    pair ordering.

    A packed plan is immutable and safe to share across domains
    (syndrome collection uses per-domain scratch), which is what keeps
    seeded [--jobs N] runs bit-identical.  Packing reflects the plan at
    the time of the call: re-{!pack} after {!minimize_vectors}. *)

type packed
(** A plan with every configuration's vectors word-packed. *)

val pack : plan -> packed
(** Raises [Assert_failure] if the plan is unsound on a fault-free
    array (a fault-free evaluation must match every expectation). *)

val syndrome_packed : packed -> Fault_model.fault -> (int * int) list
(** Bit-identical to {!syndrome}, without the per-call packing cost. *)

(** {2 Application-dependent testing}

    The paper's BIST is application-dependent (reference [14]): only
    the resources a configured application actually uses need testing.
    Restricting the fault universe to those resources and compacting
    the plan against it ({!minimize_vectors}) yields much smaller
    per-application test sets. *)

val application_universe : Fault_model.config -> Fault_model.fault list
(** Faults touching the configuration's used rows, used columns, or
    their adjacent bridges.
    Test-only: test/test_extensions.ml — tests check the
    application-dependent BIST claim. *)
