type config = {
  rows : int;
  cols : int;
  programmed : bool array array;
  observed : bool array;
}

let empty_config ~rows ~cols =
  if rows <= 0 || cols <= 0 then invalid_arg "Fault_model.empty_config";
  { rows; cols;
    programmed = Array.make_matrix rows cols false;
    observed = Array.make rows false }

let single_term ~rows ~cols r =
  let c = empty_config ~rows ~cols in
  Array.iteri (fun j _ -> c.programmed.(r).(j) <- true) c.programmed.(r);
  c.observed.(r) <- true;
  c

type fault =
  | Xpoint_stuck_open of int * int
  | Xpoint_stuck_closed of int * int
  | Row_stuck of int * bool
  | Col_stuck of int * bool
  | Output_open of int
  | Bridge_rows of int
  | Bridge_cols of int

let universe ~rows ~cols =
  let xs = ref [] in
  for r = rows - 1 downto 0 do
    for c = cols - 1 downto 0 do
      xs := Xpoint_stuck_open (r, c) :: Xpoint_stuck_closed (r, c) :: !xs
    done
  done;
  let lines =
    List.concat_map
      (fun r -> [ Row_stuck (r, false); Row_stuck (r, true); Output_open r ])
      (List.init rows Fun.id)
    @ List.concat_map
        (fun c -> [ Col_stuck (c, false); Col_stuck (c, true) ])
        (List.init cols Fun.id)
  in
  let bridges =
    List.init (max 0 (rows - 1)) (fun r -> Bridge_rows r)
    @ List.init (max 0 (cols - 1)) (fun c -> Bridge_cols c)
  in
  !xs @ lines @ bridges

let num_faults ~rows ~cols = List.length (universe ~rows ~cols)

(* Per-domain word scratch: [eval_block] is the innermost loop of every
   BIST/BISD/yield Monte-Carlo trial, so the packed column/row lines are
   reused across calls instead of allocated per evaluation.  All loops
   below are bounded by [cfg.rows]/[cfg.cols], so oversized buffers are
   harmless. *)
type scratch = {
  mutable colw : int array; (* word-packed column lines, one bit/vector *)
  mutable roww : int array; (* word-packed row lines *)
}

let scratch_key = Domain.DLS.new_key (fun () -> { colw = [||]; roww = [||] })

let ensure_words a n = if Array.length a >= n then a else Array.make n 0

(* ------------------------------------------------------------------ *)
(* Batched test-vector application.                                    *)
(*                                                                     *)
(* A [block] packs a whole vector set in the Bitslice layout: one bit  *)
(* lane per vector, one word array per column line.  [eval_block] then *)
(* applies the fault layering — column bridges, column stucks, device  *)
(* effects, row bridges, row stucks, observed wired-OR — with one word *)
(* operation standing in for up to [word_bits] scalar evaluations.     *)
(* BIST syndromes over a packed plan cost one pass per (configuration, *)
(* fault) pair instead of one per vector.                              *)
(* ------------------------------------------------------------------ *)

module Bitslice = Nxc_logic.Bitslice

let m_block_evals = Nxc_obs.Metrics.counter "fault_model.block_evals"
let m_block_words = Nxc_obs.Metrics.counter "bitslice.word_ops"

type block = {
  b_count : int;
  b_cols : int;
  b_inputs : int array array; (* per column: words over the vector lanes *)
}

let pack_vectors ~cols vectors =
  if cols <= 0 then invalid_arg "Fault_model.pack_vectors: cols";
  let count = Array.length vectors in
  let nw = Bitslice.words_for count in
  let inputs = Array.make_matrix cols nw 0 in
  Array.iteri
    (fun j vec ->
      if Array.length vec <> cols then
        invalid_arg "Fault_model.pack_vectors: vector length";
      let w = j / Bitslice.word_bits and b = j mod Bitslice.word_bits in
      for c = 0 to cols - 1 do
        if vec.(c) then inputs.(c).(w) <- inputs.(c).(w) lor (1 lsl b)
      done)
    vectors;
  { b_count = count; b_cols = cols; b_inputs = inputs }

let block_words blk = Bitslice.words_for blk.b_count

let eval_block ~faults cfg blk ~into =
  if blk.b_cols <> cfg.cols then
    invalid_arg "Fault_model.eval_block: block width";
  let nw = Bitslice.words_for blk.b_count in
  if Array.length into < nw then
    invalid_arg "Fault_model.eval_block: output buffer too small";
  Nxc_obs.Metrics.incr m_block_evals;
  Nxc_obs.Metrics.add m_block_words (nw * cfg.rows * cfg.cols);
  let s = Domain.DLS.get scratch_key in
  s.colw <- ensure_words s.colw cfg.cols;
  s.roww <- ensure_words s.roww cfg.rows;
  let col_val = s.colw and row_val = s.roww in
  (* single-fault crosspoint effects dominate the BIST sweep; hoist the
     per-cell fault-list scan out of the row loop when possible *)
  for w = 0 to nw - 1 do
    let tail = if w = nw - 1 then Bitslice.tail_mask blk.b_count else -1 in
    for c = 0 to cfg.cols - 1 do
      col_val.(c) <- blk.b_inputs.(c).(w)
    done;
    List.iter
      (fun fault ->
        match fault with
        | Bridge_cols c ->
            let v = col_val.(c) land col_val.(c + 1) in
            col_val.(c) <- v;
            col_val.(c + 1) <- v
        | Xpoint_stuck_open _ | Xpoint_stuck_closed _ | Row_stuck _
        | Col_stuck _ | Output_open _ | Bridge_rows _ -> ())
      faults;
    List.iter
      (fun fault ->
        match fault with
        | Col_stuck (c, v) -> col_val.(c) <- (if v then tail else 0)
        | Xpoint_stuck_open _ | Xpoint_stuck_closed _ | Row_stuck _
        | Bridge_cols _ | Output_open _ | Bridge_rows _ -> ())
      faults;
    let has_device r c =
      let forced_open =
        List.exists
          (function Xpoint_stuck_open (fr, fc) -> fr = r && fc = c | _ -> false)
          faults
      in
      let forced_closed =
        List.exists
          (function
            | Xpoint_stuck_closed (fr, fc) -> fr = r && fc = c | _ -> false)
          faults
      in
      if forced_open then false
      else forced_closed || cfg.programmed.(r).(c)
    in
    for r = 0 to cfg.rows - 1 do
      let value = ref tail in
      for c = 0 to cfg.cols - 1 do
        if has_device r c then value := !value land col_val.(c)
      done;
      row_val.(r) <- !value
    done;
    List.iter
      (fun fault ->
        match fault with
        | Bridge_rows r ->
            let v = row_val.(r) land row_val.(r + 1) in
            row_val.(r) <- v;
            row_val.(r + 1) <- v
        | Xpoint_stuck_open _ | Xpoint_stuck_closed _ | Col_stuck _
        | Row_stuck _ | Output_open _ | Bridge_cols _ -> ())
      faults;
    List.iter
      (fun fault ->
        match fault with
        | Row_stuck (r, v) -> row_val.(r) <- (if v then tail else 0)
        | Xpoint_stuck_open _ | Xpoint_stuck_closed _ | Col_stuck _
        | Bridge_rows _ | Output_open _ | Bridge_cols _ -> ())
      faults;
    let out = ref 0 in
    for r = 0 to cfg.rows - 1 do
      let observable =
        cfg.observed.(r)
        && not
             (List.exists
                (function Output_open fr -> fr = r | _ -> false)
                faults)
      in
      if observable then out := !out lor row_val.(r)
    done;
    into.(w) <- !out
  done

let of_defect map r c =
  match Defect.kind_at map r c with
  | None -> None
  | Some Defect.Stuck_open -> Some (Xpoint_stuck_open (r, c))
  | Some Defect.Stuck_closed -> Some (Xpoint_stuck_closed (r, c))
  | Some Defect.Bridge ->
      let c' = min c (Defect.cols map - 2) in
      if Defect.cols map >= 2 then Some (Bridge_cols c')
      else Some (Xpoint_stuck_closed (r, c))

let fault_row = function
  | Xpoint_stuck_open (r, _) | Xpoint_stuck_closed (r, _)
  | Row_stuck (r, _) | Output_open r | Bridge_rows r ->
      Some r
  | Col_stuck _ | Bridge_cols _ -> None

let fault_col = function
  | Xpoint_stuck_open (_, c) | Xpoint_stuck_closed (_, c)
  | Col_stuck (c, _) | Bridge_cols c ->
      Some c
  | Row_stuck _ | Output_open _ | Bridge_rows _ -> None

let pp_fault ppf = function
  | Xpoint_stuck_open (r, c) -> Format.fprintf ppf "xpoint(%d,%d) stuck-open" r c
  | Xpoint_stuck_closed (r, c) ->
      Format.fprintf ppf "xpoint(%d,%d) stuck-closed" r c
  | Row_stuck (r, v) -> Format.fprintf ppf "row %d stuck-at-%d" r (Bool.to_int v)
  | Col_stuck (c, v) -> Format.fprintf ppf "col %d stuck-at-%d" c (Bool.to_int v)
  | Output_open r -> Format.fprintf ppf "row %d output open" r
  | Bridge_rows r -> Format.fprintf ppf "bridge rows %d-%d" r (r + 1)
  | Bridge_cols c -> Format.fprintf ppf "bridge cols %d-%d" c (c + 1)
