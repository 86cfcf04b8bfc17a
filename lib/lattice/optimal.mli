(** Reference search for minimal lattices of tiny functions.

    Enumerates lattice dimensions by increasing area and site
    assignments over the literal alphabet (plus constants), pruning by a
    node budget — a brute-force stand-in for the optimal synthesis of
    Gange, Sondergaard and Stuckey (TODAES 2014) that the paper cites as
    the exact baseline.  Only practical for very small functions; used
    to certify the optimality of Altun–Riedel lattices in the tests and
    benches. *)

type result =
  | Found of Lattice.t  (** a minimum-area equivalent lattice *)
  | Proved_larger of int
      (** exhausted all areas up to the bound; minimum exceeds it *)
  | Budget_exhausted

val search :
  ?pool:Nxc_par.Pool.t ->
  ?max_area:int -> ?budget:int -> Nxc_logic.Boolfunc.t -> result
(** [search f] scans areas [1, 2, ...] up to [max_area] (default 9).
    [budget] caps total assignments tried (default 5_000_000); the
    ambient budget is consumed one step per candidate and its
    exhaustion also yields {!Budget_exhausted} — an explicit
    inconclusive verdict, never an exception.

    With [pool], the dimension pairs of each area are searched
    concurrently; the first conclusive pair {e in pair order} decides,
    so when neither budget binds the result equals the
    sequential one.  Under budget pressure the two modes may declare
    {!Budget_exhausted} at different points, because the remaining
    budget is split equally among a pool's pairs. *)

val minimum_area : ?max_area:int -> Nxc_logic.Boolfunc.t -> int option
(** Area of a minimum lattice if {!search} concluded. *)
