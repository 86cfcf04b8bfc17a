(** Built-in self-mapping (Section IV.B).

    BISM places a logical [k_rows x k_cols] array onto a physical
    defective crossbar by choosing physical rows and columns.  The
    schemes reproduce the paper's three procedures:

    - {e Blind}: draw a fresh random placement, run
      application-dependent BIST (pass/fail only), retry on fail.
      Fast hardware, effective at low defect density.
    - {e Greedy}: on a failing placement, run BISD to identify the
      defective resources used, and reconfigure {e only those},
      bypassing them with spare rows/columns.
    - {e Hybrid}: blind for a fixed number of retries, then switch to
      greedy — the paper's recommendation for unknown or varying
      densities.

    Statistics count programmed configurations (the expensive
    operation), applied test vectors and diagnosis invocations, so the
    benches can reproduce the regimes the paper describes. *)

type scheme = Blind | Greedy | Hybrid of int

type stats = {
  success : bool;
  configurations : int;  (** configurations programmed, including retries *)
  test_applications : int;  (** total crosspoints tested *)
  diagnoses : int;  (** BISD invocations (greedy only) *)
}

type mapping = {
  row_map : int array;  (** logical row -> physical row *)
  col_map : int array;
}

val mapping_defect_free : Defect.t -> mapping -> bool
(** Application-dependent BIST oracle: every used crosspoint is
    defect-free. *)

val run :
  Rng.t -> scheme -> chip:Defect.t -> k_rows:int -> k_cols:int ->
  max_configs:int -> stats * mapping option
(** Raises [Invalid_argument] when the logical array exceeds the
    physical one (a programming error; {!Nxc_core.Flow} pre-checks
    feasibility).  One step of the ambient budget is
    consumed per programmed configuration; exhaustion ends every retry
    loop gracefully with [success = false] and the statistics gathered
    so far. *)

(** {2 Monte-Carlo harness} *)

type mc = {
  mc_trials : int;
  mc_mapped : int;  (** trials whose mapping succeeded *)
  mc_avg_configs : float;
  mc_avg_tests : float;
  mc_avg_diagnoses : float;
}

val monte_carlo :
  ?pool:Nxc_par.Pool.t ->
  Rng.t -> scheme -> trials:int -> n:int -> profile:Defect.profile ->
  k_rows:int -> k_cols:int -> max_configs:int -> mc * stats array
(** [monte_carlo rng scheme ~trials ~n ~profile ...] fabricates
    [trials] random [n x n] chips and runs {!run} on each, returning
    the aggregate and the per-trial statistics in trial order.  Trials
    run through {!Rng.map_trials}, whose determinism and budget
    contract this inherits.
    @raise Invalid_argument when [trials <= 0]. *)

val pp_stats : Format.formatter -> stats -> unit
