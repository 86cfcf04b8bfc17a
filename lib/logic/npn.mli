(** NPN canonicalization of Boolean functions.

    Two functions are NPN-equivalent when one can be obtained from the
    other by permuting inputs (P), negating a subset of the inputs (N)
    and optionally negating the output (the leading N) — [2{^n+1}·n!]
    transforms in total.  Synthesis cost is essentially a property of
    the NPN class: input permutation and input negation only relabel
    literals, so covers, crossbar dimensions and lattice sizes carry
    over unchanged, which makes the canonical form the natural key for
    the {!Nxc_service} result cache.

    The canonical representative of a class is the transform image with
    the smallest truth table (by {!Truth_table.compare}), ties broken
    in favor of a transform with no output negation; for a fixed input
    the search is deterministic, so equal functions always map to the
    same transform, not just the same class, and [output_neg] of the
    chosen transform depends only on the function's NP-subclass.

    Functions with more than six variables (and
    exhaustive searches cut short by an exhausted
    {!Nxc_guard.Budget.t}, counted under [guard.degrade.npn_semi]) fall
    back to a {e semi}-canonical form: only output negation is
    considered.  Keys remain correct — equal functions still share a
    key — the cache merely stops unifying permuted variants. *)

type transform = {
  perm : int array;
      (** [perm.(i)] is the transformed-function input that original
          input [i] reads (a permutation of [0 .. n-1]). *)
  input_neg : bool array;
      (** [input_neg.(i)] negates original input [i]. *)
  output_neg : bool;  (** negate the output after the N/P steps *)
}

val apply : transform -> Truth_table.t -> Truth_table.t
(** [apply t f] is the function [g] with
    [g(x) = t.output_neg XOR f(y)] where
    [y{_i} = x{_t.perm.(i)} XOR t.input_neg.(i)].
    Test-only: bench/main.ml, test/oracle/npn_ref.ml, test/test_guard.ml and
    test/test_service.ml — the NPN oracle and tests apply transforms with
    it.
    @raise Invalid_argument on an arity mismatch. *)

val canonical : Truth_table.t -> transform * Truth_table.t
(** [canonical f] is [(t, g)] with [apply t f = g] and [g] minimal over
    the class (see the module preamble for the semi-canonical
    fallbacks).  The search runs on packed keys: each candidate table
    is at most two native ints whose numeric order is
    {!Truth_table.compare} order, and only the winner is built with
    {!apply}.  One step of the ambient budget is
    charged per (permutation, input-negation) pair, [2{^n}·n!] =
    [num_transforms n / 2] steps for a full search. *)

val table_key : Truth_table.t -> string
(** Exact content key of a table: arity plus the table bits in hex.
    Equal tables, and nothing else, share a key. *)

val cover_to_canon : transform -> Cover.t -> Cover.t
(** [cover_to_canon t c] relabels a cover of [f] into the input
    coordinates of [apply t f]: literal [(v, p)] becomes
    [(t.perm.(v), p XOR t.input_neg.(v))].  Output negation is {e not}
    applied — when [t.output_neg] the result covers the complement of
    [apply t f]; callers track that phase separately
    (cf. {!Nxc_service.Engine}).
    @raise Invalid_argument on an arity mismatch. *)

val cover_of_canon : transform -> Cover.t -> Cover.t
(** Inverse relabeling: [cover_of_canon t (cover_to_canon t c)] is [c]
    cube for cube.
    @raise Invalid_argument on an arity mismatch. *)
