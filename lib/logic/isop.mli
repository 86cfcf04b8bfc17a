(** Irredundant sum-of-products (Minato–Morreale).

    Computes an irredundant SOP cover of any function within a care
    interval [L <= f <= U], recursing on truth tables.  Much faster than
    exact Quine–McCluskey and good enough for the paper's size studies;
    the exact minimizer remains available for calibration. *)

val isop : ?lower:Truth_table.t -> Truth_table.t -> Cover.t
(** [isop f] is an irredundant cover of [f].
    [isop ~lower u] covers any function in the interval [lower <= g <= u]
    (don't-cares are [u AND NOT lower]). *)
