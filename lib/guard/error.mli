(** Typed errors for every fallible entry point of the pipeline.

    The paper's fabrics must keep working under defects; the software
    pipeline gets the same discipline: instead of ad-hoc [Failure] /
    [Invalid_argument] escapes, fallible public APIs return
    [('a, Error.t) result] with one of four structured causes.

    The taxonomy maps onto the CLI exit-code contract (see
    {!exit_code}): internal error = 1, invalid input = 3, budget
    exhausted without degradation = 4, unsatisfiable = 5 (usage errors,
    exit 2, never reach this type — they are caught at argument-parsing
    time). *)

type budget_info = {
  label : string;  (** which budget tripped (e.g. ["cli"], ["chaos"]) *)
  steps : int;  (** cooperative steps consumed when it tripped *)
  elapsed_ns : int;  (** wall time consumed when the error was built *)
}

type input_info = {
  reason : string;
  line : int option;  (** 1-based, for multi-line inputs (PLA) *)
  column : int option;  (** 1-based byte offset within the line *)
}

type t =
  [ `Budget_exhausted of budget_info
  | `Invalid_input of input_info
  | `Unsat of string  (** no solution exists (not a resource problem) *)
  | `Internal of string ]

val invalid_input : ?line:int -> ?column:int -> string -> [> t ]

val invalid_inputf : ('a, Format.formatter, unit, [> t ]) format4 -> 'a
(** [invalid_inputf fmt ...] is {!invalid_input} over a format string,
    without a position. *)

val unsat : string -> [> t ]

val internal : string -> [> t ]

val to_string : t -> string
(** One line, no trailing newline; includes line/column when known. *)

val exit_code : t -> int
(** The CLI contract: [`Internal] 1, [`Invalid_input] 3,
    [`Budget_exhausted] 4, [`Unsat] 5. *)

val count : t -> unit
(** Record the error in the [guard.errors] counter and the per-kind
    [guard.error.<kind>] counter. *)
