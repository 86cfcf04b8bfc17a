(** P-circuit decomposition (Bernasconi–Ciriani–Trucco–Villa).

    Decomposes [f] around a variable [x{_i}] and polarity [p]:

    {[ f = lit(xi = p) AND f_eq  OR  lit(xi = not p) AND f_neq  OR  f_int ]}

    where, writing [I] for the intersection of the projections of [f]
    onto the half-spaces [xi = p] and [xi = not p], the components obey
    the paper's containments:

    - [(f|xi=p  \ I)  subseteq f_eq  subseteq f|xi=p]
    - [(f|xi<>p \ I)  subseteq f_neq subseteq f|xi<>p]
    - [empty subseteq f_int subseteq I]

    The components are functions of the remaining [n-1] variables; they
    are represented here as arity-[n] tables that do not depend on
    [x{_i}].  Section III.B.1 of the DATE'17 paper uses this
    decomposition to synthesize smaller lattices. *)

type t = {
  var : int;          (** the decomposition variable [x{_i}] (0-based) *)
  pol : bool;         (** the polarity [p] *)
  f_eq : Truth_table.t;
  f_neq : Truth_table.t;
  f_int : Truth_table.t;
}

val decompose : var:int -> pol:bool -> Boolfunc.t -> t
(** The decomposition with [f_eq = f|xi=p \ I], [f_neq = f|xi<>p \ I]
    and [f_int = I].  Raises [Invalid_argument] if [var] is out of
    range. *)
