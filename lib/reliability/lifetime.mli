(** Lifetime reliability: periodic self-test and self-repair.

    Section IV's goal is not only manufacturing yield but "runtime
    reliability of the circuit at extremely low costs": the fabric ages
    — new crosspoints fail during operation — and the built-in
    machinery must notice (periodic application-dependent BIST) and
    recover (re-running BISM around the new defects).

    This module simulates that loop over a chip lifetime and reports
    the availability trade-off that the test period controls: testing
    rarely is cheap but leaves long exposure windows where the mapped
    circuit is silently corrupt; testing often costs test time but
    shrinks the windows. *)

type summary = {
  horizon : int;  (** simulated operation steps *)
  new_defects : int;  (** defects that appeared during the lifetime *)
  hits : int;  (** defects that landed inside the mapped region *)
  checks : int;  (** periodic BIST invocations *)
  remaps : int;  (** successful BISM repairs *)
  remap_configs : int;  (** configurations spent repairing *)
  corrupt_steps : int;  (** steps operated on a silently damaged mapping *)
  survived : bool;  (** false once BISM can no longer find a mapping *)
  lifetime : int;  (** steps until death, = [horizon] when survived *)
}

val availability : summary -> float
(** Fraction of the lifetime spent on an intact mapping. *)

val simulate :
  Rng.t ->
  chip:Defect.t ->
  k:int ->
  horizon:int ->
  failure_rate:float ->
  check_interval:int ->
  summary
(** [simulate rng ~chip ~k ~horizon ~failure_rate ~check_interval]:
    map a [k x k] array on [chip] (greedy BISM), then per step age the
    fabric (each step one fresh random crosspoint fails with
    probability [failure_rate]) and run the periodic check/repair
    loop.  Raises [Invalid_argument] if the initial mapping already
    fails. *)

val monte_carlo :
  ?pool:Nxc_par.Pool.t ->
  Rng.t ->
  chip:Defect.t ->
  k:int ->
  trials:int ->
  horizon:int ->
  failure_rate:float ->
  check_interval:int ->
  summary array
(** [trials] independent lifetimes of the same starting [chip], in
    trial order, through {!Rng.map_trials} (determinism contract
    there).
    @raise Invalid_argument when [trials <= 0], on the [simulate]
    argument errors, or if some trial's initial mapping fails.
    Test-only: bench/main.ml and test/par/test_par.ml — the bench and the
    tests call it. *)
