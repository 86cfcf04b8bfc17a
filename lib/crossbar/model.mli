(** Common crossbar modelling types.

    A two-terminal switch crossbar is a grid of horizontal and vertical
    nanowires with a programmable crosspoint at every intersection
    (Fig. 1 of the paper).  The concrete conduction semantics differ
    between the diode and FET realizations ({!Diode}, {!Fet}); this
    module holds what they share: dimensions, placement matrices and
    technology descriptions. *)

type dims = { rows : int; cols : int }

type placement = {
  dims : dims;
  connected : bool array array;
      (** [connected.(r).(c)] — whether the crosspoint at row [r],
          column [c] is programmed (a device is formed there). *)
}

val placement_of_matrix : bool array array -> placement
(** Validates rectangularity.  Raises [Invalid_argument]. *)

val programmed : placement -> int
(** Number of programmed crosspoints. *)

val iter_programmed : (int -> int -> unit) -> placement -> unit

(** Technology parameters used by {!Metrics} for first-order area /
    delay / energy estimates.  Defaults are order-of-magnitude values
    for self-assembled nanowire crossbars (~10 nm pitch); they scale the
    reported numbers but never change any comparison performed in the
    benches. *)
type tech = {
  tech_name : string;
  pitch_nm : float;  (** nanowire pitch *)
  crosspoint_delay_ps : float;  (** per-crosspoint RC delay contribution *)
  crosspoint_energy_aj : float;  (** per-switching-crosspoint energy *)
}

val diode_tech : tech
val fet_tech : tech
val lattice_tech : tech
