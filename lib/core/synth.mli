(** One-stop synthesis across every technology of the paper.

    Given a Boolean function, produce the diode crossbar, the FET
    crossbar, the Altun–Riedel lattice and the two preprocessed lattice
    variants, with their sizes — the comparison at the heart of
    Section III. *)

type t = {
  func : Nxc_logic.Boolfunc.t;
  products : int;  (** products of the minimized SOP of f *)
  dual_products : int;  (** products of the minimized SOP of f{^D} *)
  distinct_literals : int;
  diode : Nxc_crossbar.Diode.t option;  (** [None] for constant functions *)
  fet : Nxc_crossbar.Fet.t option;
  ar_lattice : Nxc_lattice.Lattice.t;
  dec_lattice : Nxc_lattice.Lattice.t;
      (** the smaller of [ar_lattice] and the best
          P-circuit-decomposition lattice ([ar_lattice] on ties) *)
  dred_lattice : Nxc_lattice.Lattice.t option;
      (** D-reduction lattice when [func] is D-reducible *)
  degraded : bool;
      (** the budget ran out mid-synthesis and at least one step fell
          back to a cheaper method; every implementation still computes
          [func] *)
}

val synthesize : ?decompose:bool -> Nxc_logic.Boolfunc.t -> t
(** f and f{^D} are minimized once; [ar_lattice] is built from those
    covers.  [decompose] (default true) controls whether the P-circuit
    search is run (it is the slow part for larger functions).  The
    whole pipeline charges the ambient budget; exhaustion degrades
    internally (see {!field-degraded}) and never raises. *)

val synthesize_result :
  Nxc_logic.Boolfunc.t -> (t, Nxc_guard.Error.t) result
(** Like {!synthesize} (with the P-circuit search), but a
    [Fail]-policy budget turns a degraded synthesis into
    [`Budget_exhausted]. *)

val verify : t -> bool
(** Every produced implementation computes [func] (exhaustive). *)

type sizes = {
  name : string;
  n_vars : int;
  diode_size : (int * int) option;  (** rows x cols *)
  fet_size : (int * int) option;
  ar_size : int * int;
  dec_size : int * int;
  dred_size : (int * int) option;
  best_lattice_area : int;
}

val sizes : t -> sizes

val best_lattice : t -> Nxc_lattice.Lattice.t
(** Smallest of the three lattice variants. *)

(** {2 Area-driven selection} *)

type choice =
  | Use_diode of Nxc_crossbar.Diode.t
  | Use_fet of Nxc_crossbar.Fet.t
  | Use_lattice of Nxc_lattice.Lattice.t

val lattice_report : Nxc_lattice.Lattice.t -> Nxc_crossbar.Metrics.report
(** First-order metrics for a lattice: programmed = non-constant-0
    sites, worst path = one traversal per row.
    Test-only: test/test_extensions.ml — tests check lattice metrics with
    it. *)

val select : t -> choice * Nxc_crossbar.Metrics.report
(** The implementation of least area among the diode array, the FET
    array and the best lattice (the first of them on ties).  For
    constant functions the lattice (a single constant site) is the only
    candidate.
    Test-only: test/test_extensions.ml — tests check it directly. *)
