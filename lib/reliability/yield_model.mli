(** Monte-Carlo manufacturing yield of the defect-unaware flow.

    Yield here is the probability that a fabricated [N x N] crossbar
    with a given defect profile still contains a defect-free [k x k]
    sub-crossbar (found by the greedy extractor) — the quantity that
    decides what universal [k] a production line can promise
    (Section IV.C). *)

val recovery_rate :
  ?pool:Nxc_par.Pool.t ->
  Rng.t -> trials:int -> n:int -> k:int -> profile:Defect.profile -> float
(** Fraction of random chips from which a [k x k] defect-free array is
    recovered.  Trials run through {!Rng.map_trials} (determinism
    contract there).
    Test-only: tests and the bench read recovery with it.
    @raise Invalid_argument when [trials <= 0]. *)

val expected_max_k :
  ?pool:Nxc_par.Pool.t ->
  Rng.t -> trials:int -> n:int -> profile:Defect.profile -> float
(** Average recovered [k] over random chips; same parallelism and
    determinism contract as {!recovery_rate}.
    @raise Invalid_argument when [trials <= 0]. *)

val guaranteed_k :
  ?pool:Nxc_par.Pool.t ->
  Rng.t -> trials:int -> n:int -> profile:Defect.profile -> min_yield:float -> int
(** Largest [k] whose {!recovery_rate} estimate is at least
    [min_yield]. *)
