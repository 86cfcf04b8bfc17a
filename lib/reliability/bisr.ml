module Obs = Nxc_obs
module Guard = Nxc_guard

let m_tables = Obs.Metrics.counter "bisr.tables_built"
let m_rejected = Obs.Metrics.counter "bisr.rejected"
let m_remapped = Obs.Metrics.counter "bisr.remapped_lines"
let h_build = Obs.Metrics.hdr "bisr.latency.build"

type t = {
  rows : int;
  cols : int;
  phys_rows : int;
  phys_cols : int;
  row_map : int array;
  col_map : int array;
}

(* Surviving physical indices in ascending order, with the repaired
   set removed.  [None] when a repaired index falls outside the
   dimension. *)
let survivors n repaired =
  if List.exists (fun i -> i < 0 || i >= n) repaired then None
  else begin
    let dead = Array.make n false in
    List.iter (fun i -> dead.(i) <- true) repaired;
    let out = ref [] in
    for i = n - 1 downto 0 do
      if not dead.(i) then out := i :: !out
    done;
    Some !out
  end

let build chip ~rows ~cols (sol : Bira.solution) =
  let t0 = Obs.Clock.now_ns () in
  let finish r =
    Obs.Metrics.hdr_observe h_build (Obs.Clock.now_ns () - t0);
    r
  in
  let phys_rows = Defect.rows chip and phys_cols = Defect.cols chip in
  let err fmt = Format.kasprintf (fun s ->
      Obs.Metrics.incr m_rejected;
      finish (Error (Guard.Error.invalid_input s))) fmt
  in
  if rows <= 0 || cols <= 0 then
    err "bisr: %dx%d logical array is empty" rows cols
  else
    match
      (survivors phys_rows sol.repair_rows, survivors phys_cols sol.repair_cols)
    with
    | None, _ | _, None ->
        err "bisr: repaired line index out of range on a %dx%d chip"
          phys_rows phys_cols
    | Some live_r, Some live_c ->
        if List.length live_r < rows || List.length live_c < cols then
          err "bisr: only %dx%d lines survive repair, need %dx%d"
            (List.length live_r) (List.length live_c) rows cols
        else begin
          let take n l = Array.init n (List.nth l) in
          let t =
            { rows; cols; phys_rows; phys_cols;
              row_map = take rows live_r;
              col_map = take cols live_c }
          in
          Obs.Metrics.incr m_tables;
          (* remapped = logical lines whose physical index shifted *)
          let moved map =
            Array.to_seq map |> Seq.mapi (fun i p -> if p <> i then 1 else 0)
            |> Seq.fold_left ( + ) 0
          in
          Obs.Metrics.add m_remapped (moved t.row_map + moved t.col_map);
          finish (Ok t)
        end

let row t i =
  if i < 0 || i >= t.rows then invalid_arg "Bisr.row";
  t.row_map.(i)

let col t i =
  if i < 0 || i >= t.cols then invalid_arg "Bisr.col";
  t.col_map.(i)

let to_mapping t : Bism.mapping =
  { row_map = Array.copy t.row_map; col_map = Array.copy t.col_map }

let defect_free chip t = Bism.mapping_defect_free chip (to_mapping t)

let compose t (inner : Bism.mapping) : Bism.mapping =
  let through map bound which =
    Array.map
      (fun i ->
        if i < 0 || i >= bound then
          invalid_arg ("Bisr.compose: inner mapping leaves the repaired " ^
                       which ^ " range")
        else map.(i))
  in
  { row_map = through t.row_map t.rows "row" inner.row_map;
    col_map = through t.col_map t.cols "col" inner.col_map }
