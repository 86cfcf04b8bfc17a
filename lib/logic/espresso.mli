(** Espresso-style heuristic two-level minimization.

    The classic EXPAND / IRREDUNDANT / REDUCE improvement loop on cube
    covers, with optional don't-cares.  Unlike exact Quine–McCluskey it
    never enumerates all primes, so it scales to larger covers; unlike
    plain ISOP it iterates, often escaping the first irredundant cover
    it finds.  Used by {!Minimize} as an optional post-pass and
    benchmarked against the exact minimizer. *)

type cost = { cubes : int; literals : int }

val cost_of : Cover.t -> cost
(** Test-only: tests pin the cost order with it. *)

val compare_cost : cost -> cost -> int
(** Lexicographic: fewer cubes first, then fewer literals.
    Test-only: tests pin the cost order with it. *)

val expand : ?dc:Cover.t -> Cover.t -> Cover.t
(** Grow each cube to a prime within [on + dc]; drops cubes that become
    single-cube contained. *)

val irredundant : ?dc:Cover.t -> Cover.t -> Cover.t
(** Remove cubes covered by the rest of the cover plus the DC set. *)

val reduce : ?dc:Cover.t -> Cover.t -> Cover.t
(** Shrink each cube to the smallest cube still covering its private
    minterms — sets up the next expansion round. *)

val minimize :
  ?dc:Cover.t -> ?max_rounds:int -> ?guard:Nxc_guard.Budget.t -> Cover.t ->
  Cover.t
(** Run the loop to a fixpoint of the cost (at most [max_rounds],
    default 8).  The result covers the ON-set and stays inside
    [on + dc].  The loop is {e anytime}: one [guard] step is consumed
    per round (default: the ambient budget) and exhaustion returns the
    best cover found so far — the input itself in the worst case —
    counting a [guard.degrade.espresso_early_stop]. *)

val minimize_table : ?max_rounds:int -> Truth_table.t -> Cover.t
