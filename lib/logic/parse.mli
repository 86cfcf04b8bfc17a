(** Parsers and printers for Boolean functions.

    Two concrete syntaxes are supported:

    {2 Expressions}

    [x1 x2' + x3 (x1 ^ x2)] — juxtaposition or [*] is AND, [+] is OR,
    [^] is XOR, postfix ['] or prefix [~] is NOT, [0]/[1] are constants.
    Variables are [x1], [x2], ... (1-based, as in the paper).

    {2 PLA (espresso) format}

    The Berkeley [.pla] subset: [.i], [.o], [.p] (optional), [.ilb],
    [.ob], [.e]/[.end]; cube lines over [0 1 -] with output parts over
    [0 1 ~ -].  Output value [-] / [~] is treated as don't-care and [~]
    rows are ignored (type fr semantics for the care set).  [.i] is
    capped at [Truth_table.max_vars], since every consumer tabulates
    the outputs.

    {2 Robustness}

    Both parsers validate their input strictly: non-ASCII and control
    bytes, malformed variable literals, out-of-range indices and
    arities, inconsistent PLA row widths and overlong inputs
    (expressions over 64 KiB, PLA lines over 4 KiB) are all rejected.
    The [_result] variants report a {!Nxc_guard.Error.t}
    ([`Invalid_input] carrying 1-based line/column where known); the
    legacy variants raise {!Parse_error} with the same rendered
    message. *)

exception Parse_error of string

val expr : ?n:int -> string -> Boolfunc.t
(** Parse an expression.  [n] forces the variable count; it defaults to
    the highest variable index used.  The arity is capped at
    [Truth_table.max_vars].  Raises {!Parse_error}. *)

val expr_result : string -> (Boolfunc.t, Nxc_guard.Error.t) result

type pla = {
  inputs : int;
  outputs : int;
  input_labels : string list option;
  output_labels : string list option;
  on_sets : Cover.t array;   (** per-output ON-set cover *)
  dc_sets : Cover.t array;   (** per-output don't-care cover *)
}

val pla_of_string_result : string -> (pla, Nxc_guard.Error.t) result
