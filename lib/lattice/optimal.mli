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

val search : ?max_area:int -> Nxc_logic.Boolfunc.t -> result
(** [search f] scans areas [1, 2, ...] up to [max_area] (default 9),
    the dimension pairs of each area in order.  At most 5_000_000
    assignments are tried in total; the ambient budget is consumed one
    step per candidate and its exhaustion also yields
    {!Budget_exhausted} — an explicit inconclusive verdict, never an
    exception.
    Test-only: test/test_guard.ml and test/test_lattice.ml — tests check it
    directly. *)

val minimum_area : ?max_area:int -> Nxc_logic.Boolfunc.t -> int option
(** Area of a minimum lattice if {!search} concluded. *)
