(** Deterministic splitmix64 pseudo-random generator.

    Every stochastic experiment in the reliability stack threads one of
    these explicitly, so `dune runtest` and the benches are exactly
    reproducible and independent of the global [Random] state. *)

type t

val create : int -> t
(** Seeded generator. *)

val split : t -> t
(** An independent generator derived from (and advancing) [t].
    Test-only: test/test_reliability.ml — tests check it directly. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound).  Requires [bound > 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [0, bound). *)

val bool : t -> float -> bool
(** [bool t p] is a Bernoulli trial with probability [p]. *)

val gaussian : t -> float
(** Standard normal variate (Box–Muller). *)

val sample_without_replacement : t -> int -> int -> int array
(** [sample_without_replacement t k n]: [k] distinct values from
    [0..n-1], in random order.  Requires [k <= n]. *)

val map_trials :
  ?pool:Nxc_par.Pool.t -> t -> trials:int -> (t -> 'a) -> 'a array
(** [map_trials rng ~trials f] runs [f] once per Monte-Carlo trial, each
    call with its own stream, and returns the results in trial order.
    Every Monte-Carlo loop of this library goes through it, and inherits
    its contract: all [trials] streams are split off [rng] in trial
    order before any trial runs, so the result is bit-identical with
    and without [pool], for every [--jobs N].  {!Nxc_par.Pool.map_range}
    partitions the ambient budget across the pool's
    runner slots, so under budget pressure the {e set} of trials that
    wind down early may differ from a sequential run.
    @raise Invalid_argument when [trials < 0]. *)
