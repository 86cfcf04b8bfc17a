(* Independent checker for the Kőnig certificates behind "proven
   unmappable": it probes the defect map crosspoint by crosspoint and
   shares no code with the matching that produced the certificate. *)

open Nxc_reliability

(** Whether [m] proves that no repair with [spares] replaced lines
    exists on [chip]: every edge is a defective crosspoint, no two edges
    share a row or a column, and there are more than [spares] of them.
    Each repair must replace a line of every edge, and a line covers at
    most one edge of a matching. *)
let matching_certifies chip ~spares m =
  let rows = Defect.rows chip and cols = Defect.cols chip in
  let row_used = Array.make rows false and col_used = Array.make cols false in
  Array.length m > spares
  && Array.for_all
       (fun (r, c) ->
         r >= 0 && r < rows && c >= 0 && c < cols
         && Defect.is_defective chip r c
         && (not row_used.(r))
         && (not col_used.(c))
         && begin
              row_used.(r) <- true;
              col_used.(c) <- true;
              true
            end)
       m

(** The exact BIRA search without the matching bound, on scalar
    [Defect.is_defective] probes: the must-repair fixpoint, then a
    branch and bound over (replace row | replace column) for the first
    uncovered defect in row-major order, pruning only on [used >= best].
    Returns the repaired [(rows, cols)], each ascending, or [None] when
    no repair fits the spares.  Unbudgeted: small chips only. *)
let bira_exact chip ~spare_rows ~spare_cols =
  let n_r = Defect.rows chip and n_c = Defect.cols chip in
  let keep_r = Array.make n_r true and keep_c = Array.make n_c true in
  let count_row r =
    let k = ref 0 in
    for c = 0 to n_c - 1 do
      if keep_c.(c) && Defect.is_defective chip r c then incr k
    done;
    !k
  and count_col c =
    let k = ref 0 in
    for r = 0 to n_r - 1 do
      if keep_r.(r) && Defect.is_defective chip r c then incr k
    done;
    !k
  in
  let exception No_repair in
  let rec must rem_r rem_c must_r must_c =
    let find n keep count limit =
      let rec go i =
        if i >= n then None
        else if keep.(i) && count i > limit then Some i
        else go (i + 1)
      in
      go 0
    in
    match find n_r keep_r count_row rem_c with
    | Some r ->
        if rem_r = 0 then raise No_repair;
        keep_r.(r) <- false;
        must (rem_r - 1) rem_c (r :: must_r) must_c
    | None -> (
        match find n_c keep_c count_col rem_r with
        | Some c ->
            if rem_c = 0 then raise No_repair;
            keep_c.(c) <- false;
            must rem_r (rem_c - 1) must_r (c :: must_c)
        | None -> (rem_r, rem_c, must_r, must_c))
  in
  match must spare_rows spare_cols [] [] with
  | exception No_repair -> None
  | rem_r, rem_c, must_r, must_c -> (
      let defects =
        List.concat_map
          (fun r ->
            List.filter_map
              (fun c ->
                if keep_r.(r) && keep_c.(c) && Defect.is_defective chip r c
                then Some (r, c)
                else None)
              (List.init n_c Fun.id))
          (List.init n_r Fun.id)
      in
      let best = ref None in
      let rec go rows cols rem_r rem_c used =
        match !best with
        | Some (b, _, _) when used >= b -> ()
        | _ -> (
            match
              List.find_opt
                (fun (r, c) -> not (List.mem r rows || List.mem c cols))
                defects
            with
            | None -> best := Some (used, rows, cols)
            | Some (r, c) ->
                if rem_r > 0 then
                  go (r :: rows) cols (rem_r - 1) rem_c (used + 1);
                if rem_c > 0 then
                  go rows (c :: cols) rem_r (rem_c - 1) (used + 1))
      in
      go [] [] rem_r rem_c 0;
      match !best with
      | None -> None
      | Some (_, rows, cols) ->
          Some
            ( List.sort compare (must_r @ rows),
              List.sort compare (must_c @ cols) ))

(** The logical array a BIRA repair leaves: logical line [i] is the
    [i]-th physical line the solution does not replace, for the first
    [rows] rows and [cols] columns.  [None] when fewer lines survive or
    a repaired index is out of range. *)
let repaired_array chip ~rows ~cols (sol : Bira.solution) =
  let survivors n repaired k =
    if List.exists (fun i -> i < 0 || i >= n) repaired then None
    else
      let kept = List.filter (fun i -> not (List.mem i repaired)) (List.init n Fun.id) in
      if List.length kept < k then None
      else Some (Array.of_list (List.filteri (fun i _ -> i < k) kept))
  in
  match
    ( survivors (Defect.rows chip) sol.repair_rows rows,
      survivors (Defect.cols chip) sol.repair_cols cols )
  with
  | Some row_map, Some col_map -> Some { Bism.row_map; col_map }
  | _ -> None

(** Whether every crosspoint a selection keeps is clean, probed one
    crosspoint at a time. *)
let selection_defect_free chip (sel : Defect_flow.selection) =
  Array.for_all
    (fun r ->
      Array.for_all (fun c -> not (Defect.is_defective chip r c)) sel.sel_cols)
    sel.sel_rows

(** Whether a defect-aware placement puts every lattice site on a
    crosspoint it tolerates: a constant-0 site over a clean or
    stuck-open crosspoint, a constant-1 site over a clean or
    stuck-closed one, a literal site over a clean one only. *)
let placement_compatible chip lattice rows cols =
  let module L = Nxc_lattice.Lattice in
  let ok r c =
    match (Defect.kind_at chip rows.(r) cols.(c), L.site lattice r c) with
    | None, _ -> true
    | Some Defect.Stuck_open, L.Zero -> true
    | Some Defect.Stuck_closed, L.One -> true
    | Some _, _ -> false
  in
  let good = ref true in
  Array.iteri (fun r _ -> Array.iteri (fun c _ -> if not (ok r c) then good := false) cols) rows;
  !good
