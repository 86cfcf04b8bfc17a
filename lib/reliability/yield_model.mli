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
    Test-only: bench/main.ml, test/par/test_par.ml and
    test/test_reliability.ml — tests and the bench read recovery with it.
    @raise Invalid_argument when [trials <= 0]. *)

val expected_max_k :
  ?pool:Nxc_par.Pool.t ->
  Rng.t -> trials:int -> n:int -> profile:Defect.profile -> float
(** Average recovered [k] over random chips; same parallelism and
    determinism contract as {!recovery_rate}.
    @raise Invalid_argument when [trials <= 0]. *)

val guaranteed_ks :
  ?pool:Nxc_par.Pool.t ->
  Rng.t -> trials:int -> n:int -> profile:Defect.profile ->
  min_yields:float list -> int list
(** [guaranteed_ks rng ~trials ~n ~profile ~min_yields] walks [k] down
    from [n] once, estimating {!recovery_rate} over [trials] fresh
    chips at each [k] (drawn from [rng] in that order), and returns,
    for each threshold in [min_yields] and in its order, the first [k]
    whose rate reaches it, or [0] when none down to [k = 1] does.  The
    walk stops as soon as every threshold has its [k].  Thresholds need
    not be sorted or distinct.  The result equals {!guaranteed_k} per
    threshold, each on a copy of [rng]'s state: the shared walk draws
    the same chips at every [k].
    @raise Invalid_argument when [trials <= 0], [n >= 1] and
    [min_yields] is not empty. *)

val guaranteed_k :
  Rng.t -> trials:int -> n:int -> profile:Defect.profile -> min_yield:float -> int
(** Largest [k] whose {!recovery_rate} estimate is at least
    [min_yield]: the one-threshold case of {!guaranteed_ks}. *)
