(** Text tables summarizing synthesis results — the Section III
    comparison format used by the benches and examples. *)

val size_row : Synth.sizes -> string
(** One fixed-width row: name, arity, products, and all array sizes. *)

val size_header : string

val size_table : Synth.sizes list -> string
(** Header + rows + a summary line (totals and who-wins counts). *)
