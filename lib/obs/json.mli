(** A minimal JSON value type with an emitter and parser, so the
    observability layer stays free of external dependencies.  The
    emitter produces RFC 8259-conformant output (non-finite floats
    become [null]); the parser accepts exactly one JSON value. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string

exception Parse_error of string

(** [of_string s] parses one JSON value spanning all of [s].
    @raise Parse_error on malformed input. *)
val of_string : string -> t

(** [member key json] is the value bound to [key] when [json] is an
    object containing it. *)
val member : string -> t -> t option
