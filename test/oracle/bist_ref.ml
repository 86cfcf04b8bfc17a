(* Scalar crossbar fault evaluation and BIST syndrome: the per-vector
   reference for the word-packed [Fault_model.eval_block] and [Bist]
   kernels. *)

open Nxc_reliability
module Fm = Fault_model

(* Per-domain line-value scratch: the scalar syndrome runs two
   evaluations per (configuration, vector) pair, so the column/row
   arrays are reused across calls instead of allocated per evaluation.
   All loops are bounded by [cfg.rows]/[cfg.cols], so oversized buffers
   are harmless. *)
type scratch = { mutable col : bool array; mutable row : bool array }

let scratch_key = Domain.DLS.new_key (fun () -> { col = [||]; row = [||] })

let ensure_bools a n = if Array.length a >= n then a else Array.make n false

(** Output of the configured crossbar carrying [faults] at once, on an
    input vector of length [cfg.cols]: line stucks override bridge
    values, which override device-level effects. *)
let eval_multi ~faults (cfg : Fm.config) vector =
  if Array.length vector <> cfg.cols then
    invalid_arg "Bist_ref.eval: vector length";
  let s = Domain.DLS.get scratch_key in
  s.col <- ensure_bools s.col cfg.cols;
  s.row <- ensure_bools s.row cfg.rows;
  (* column line values: bridges first (wired-AND of the healthy
     values), then stuck lines override *)
  let col_val = s.col in
  Array.blit vector 0 col_val 0 cfg.cols;
  List.iter
    (fun fault ->
      match fault with
      | Fm.Bridge_cols c ->
          let v = col_val.(c) && col_val.(c + 1) in
          col_val.(c) <- v;
          col_val.(c + 1) <- v
      | Fm.Xpoint_stuck_open _ | Fm.Xpoint_stuck_closed _ | Fm.Row_stuck _
      | Fm.Col_stuck _ | Fm.Output_open _ | Fm.Bridge_rows _ -> ())
    faults;
  List.iter
    (fun fault ->
      match fault with
      | Fm.Col_stuck (c, v) -> col_val.(c) <- v
      | Fm.Xpoint_stuck_open _ | Fm.Xpoint_stuck_closed _ | Fm.Row_stuck _
      | Fm.Bridge_cols _ | Fm.Output_open _ | Fm.Bridge_rows _ -> ())
    faults;
  (* effective device placement *)
  let has_device r c =
    let forced_open =
      List.exists (function Fm.Xpoint_stuck_open (fr, fc) -> fr = r && fc = c | _ -> false) faults
    in
    let forced_closed =
      List.exists (function Fm.Xpoint_stuck_closed (fr, fc) -> fr = r && fc = c | _ -> false) faults
    in
    if forced_open then false
    else forced_closed || cfg.programmed.(r).(c)
  in
  (* row line values: wired-AND over devices; empty row pulls up to 1 *)
  let row_val = s.row in
  for r = 0 to cfg.rows - 1 do
    let value = ref true in
    for c = 0 to cfg.cols - 1 do
      if has_device r c && not col_val.(c) then value := false
    done;
    row_val.(r) <- !value
  done;
  List.iter
    (fun fault ->
      match fault with
      | Fm.Bridge_rows r ->
          let v = row_val.(r) && row_val.(r + 1) in
          row_val.(r) <- v;
          row_val.(r + 1) <- v
      | Fm.Xpoint_stuck_open _ | Fm.Xpoint_stuck_closed _ | Fm.Col_stuck _
      | Fm.Row_stuck _ | Fm.Output_open _ | Fm.Bridge_cols _ -> ())
    faults;
  List.iter
    (fun fault ->
      match fault with
      | Fm.Row_stuck (r, v) -> row_val.(r) <- v
      | Fm.Xpoint_stuck_open _ | Fm.Xpoint_stuck_closed _ | Fm.Col_stuck _
      | Fm.Bridge_rows _ | Fm.Output_open _ | Fm.Bridge_cols _ -> ())
    faults;
  (* wired-OR over observed rows *)
  let out = ref false in
  for r = 0 to cfg.rows - 1 do
    let observable =
      cfg.observed.(r)
      && not
           (List.exists
              (function Fm.Output_open fr -> fr = r | _ -> false)
              faults)
    in
    if observable && row_val.(r) then out := true
  done;
  !out

(** {!eval_multi} with at most one fault. *)
let eval ?fault cfg vector =
  eval_multi ~faults:(Option.to_list fault) cfg vector

(** Failing [(configuration index, vector index)] pairs of an array
    carrying [faults] at once, in ascending order.  Every
    (configuration, vector) visit re-asserts that the plan is sound on
    a fault-free array and then runs one faulty evaluation, so a
    syndrome costs two scalar evaluations per vector. *)
let syndrome_scalar (p : Bist.plan) faults =
  let acc = ref [] in
  List.iteri
    (fun ci (tc : Bist.test_config) ->
      List.iteri
        (fun vi (t : Bist.vector_test) ->
          assert (eval tc.config t.vector = t.expected);
          if eval_multi ~faults tc.config t.vector <> t.expected then
            acc := (ci, vi) :: !acc)
        tc.tests)
    p.configs;
  List.rev !acc
