(** Named Boolean functions.

    The user-facing value synthesized by this library: a truth table
    with a display name.  All synthesis entry points
    ({!Nxc_lattice.Altun_riedel}, {!Nxc_crossbar.Diode}, ...) accept a
    [Boolfunc.t]. *)

type t

val make : ?name:string -> Truth_table.t -> t

val of_fun_int : ?name:string -> int -> (int -> bool) -> t

val of_cover : ?name:string -> Cover.t -> t

val name : t -> string
(** Display name; defaults to ["f"]. *)

val with_name : string -> t -> t

val n_vars : t -> int

val table : t -> Truth_table.t

val eval_int : t -> int -> bool

val dual : t -> t

val is_const : t -> bool option
