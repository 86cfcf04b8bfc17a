(** Built-in self-diagnosis (Section IV.A).

    Diagnosis turns a BIST syndrome (the set of failing
    configuration/vector pairs) back into faulty resources.  The group
    configurations of {!Bist} implement the paper's block-code idea
    directly: row [i] participates in the groups selected by the binary
    digits of [i], so the pass/fail outcomes of the logarithmically many
    group configurations {e are} a codeword that spells out the faulty
    row, and the failing walking-0 vector index spells out the column.

    For fault kinds that only the diagonal configurations sensitize,
    diagnosis falls back to syndrome matching over the fault universe;
    the result is an equivalence class of candidate faults, which is
    guaranteed (and checked by the tests) to pin down the faulty row or
    column — exactly the granularity greedy BISM needs to bypass
    defective resources. *)

type location = {
  cand_rows : int list;  (** physical rows implicated *)
  cand_cols : int list;  (** physical columns implicated *)
}

val locate :
  Bist.plan -> universe:Fault_model.fault list -> syndrome:(int * int) list ->
  location
(** Union of the rows/columns of the diagnosed class.  When the class
    is empty (multi-fault), falls back to the rows/columns directly
    readable from the syndrome: failing group-configuration patterns
    and failing vector indices. *)

val decode_row_code : Bist.plan -> (int * int) list -> int option
(** The paper's block-code decode: reconstruct a row index from which
    group configurations fail.  [None] when group outcomes are not a
    consistent single-row codeword. *)

val num_group_configs : Bist.plan -> int
(** The logarithmic part of the plan — reported by the benches against
    the total fault count. *)
