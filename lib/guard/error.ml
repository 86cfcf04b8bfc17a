module Obs = Nxc_obs

type budget_info = { label : string; steps : int; elapsed_ns : int }

type input_info = { reason : string; line : int option; column : int option }

type t =
  [ `Budget_exhausted of budget_info
  | `Invalid_input of input_info
  | `Unsat of string
  | `Internal of string ]

let invalid_input ?line ?column reason = `Invalid_input { reason; line; column }

let invalid_inputf fmt = Format.kasprintf invalid_input fmt

let unsat msg = `Unsat msg

let internal msg = `Internal msg

let position_suffix line column =
  match (line, column) with
  | None, None -> ""
  | Some l, None -> Printf.sprintf " (line %d)" l
  | None, Some c -> Printf.sprintf " (column %d)" c
  | Some l, Some c -> Printf.sprintf " (line %d, column %d)" l c

let to_string = function
  | `Budget_exhausted { label; steps; elapsed_ns } ->
      Printf.sprintf "budget exhausted: %s stopped after %d steps (%.1fms)"
        label steps (Obs.Clock.ns_to_ms elapsed_ns)
  | `Invalid_input { reason; line; column } ->
      Printf.sprintf "invalid input: %s%s" reason (position_suffix line column)
  | `Unsat msg -> Printf.sprintf "unsatisfiable: %s" msg
  | `Internal msg -> Printf.sprintf "internal error: %s" msg

let exit_code = function
  | `Internal _ -> 1
  | `Invalid_input _ -> 3
  | `Budget_exhausted _ -> 4
  | `Unsat _ -> 5

let kind_name = function
  | `Budget_exhausted _ -> "budget_exhausted"
  | `Invalid_input _ -> "invalid_input"
  | `Unsat _ -> "unsat"
  | `Internal _ -> "internal"

let m_errors = Obs.Metrics.counter "guard.errors"

let count e =
  Obs.Metrics.incr m_errors;
  Obs.Metrics.incr (Obs.Metrics.counter ("guard.error." ^ kind_name e))
