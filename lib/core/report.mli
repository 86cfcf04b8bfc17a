(** Text tables summarizing synthesis results — the Section III
    comparison format used by the benches and examples. *)

val size_row : Synth.sizes -> string
(** One fixed-width row: name, arity, products, and all array sizes. *)

val size_header : string

val size_table : Synth.sizes list -> string
(** Header + rows + a summary line (totals and who-wins counts). *)

val comparison_summary : Synth.sizes list -> string
(** The Section III headline: on how many benchmarks the four-terminal
    lattice beats the diode / FET arrays, and the mean area ratios.
    Test-only: tests check the Section III summary with it. *)
