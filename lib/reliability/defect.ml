type kind = Stuck_open | Stuck_closed | Bridge

module Bitslice = Nxc_logic.Bitslice

(* [bits] mirrors [map] as per-row word bitmaps (bit [c] of row [r] set
   iff the crosspoint is defective) so that selection checks — the BISM
   oracle probing every (row, col) pair of a candidate mapping — cost
   one AND per word instead of one probe per crosspoint. *)
type t = {
  rows : int;
  cols : int;
  map : kind option array array;
  bits : int array array;
}

let bits_of_map ~rows:_ ~cols map =
  let nw = Bitslice.words_for cols in
  Array.map
    (fun row ->
      let words = Array.make nw 0 in
      Array.iteri
        (fun c k ->
          if k <> None then
            words.(c / Bitslice.word_bits) <-
              words.(c / Bitslice.word_bits) lor (1 lsl (c mod Bitslice.word_bits)))
        row;
      words)
    map

type profile = {
  density : float;
  frac_open : float;
  frac_closed : float;
  clusters : int;
  cluster_radius : float;
}

(* A malformed profile would not crash generation — it would silently
   produce a nonsense map (negative Bernoulli probabilities never fire,
   fractions over 1 skew the kind split, ...).  Reject it up front with
   a typed error; [generate] raises [Invalid_argument] on it. *)
let validate_profile p =
  let module E = Nxc_guard.Error in
  let unit_interval name v =
    if Float.is_nan v || v < 0.0 || v > 1.0 then
      Some (E.invalid_inputf "defect profile: %s %g not in [0, 1]" name v)
    else None
  in
  let problem =
    match unit_interval "density" p.density with
    | Some _ as e -> e
    | None -> (
        match unit_interval "frac_open" p.frac_open with
        | Some _ as e -> e
        | None -> (
            match unit_interval "frac_closed" p.frac_closed with
            | Some _ as e -> e
            | None ->
                if p.frac_open +. p.frac_closed > 1.0 then
                  Some
                    (E.invalid_inputf
                       "defect profile: frac_open + frac_closed = %g exceeds 1"
                       (p.frac_open +. p.frac_closed))
                else if p.clusters < 0 then
                  Some
                    (E.invalid_inputf "defect profile: clusters %d negative"
                       p.clusters)
                else if Float.is_nan p.cluster_radius || p.cluster_radius < 0.0
                then
                  Some
                    (E.invalid_inputf
                       "defect profile: cluster_radius %g negative"
                       p.cluster_radius)
                else None))
  in
  match problem with Some e -> Error e | None -> Ok p

let uniform density =
  { density; frac_open = 0.80; frac_closed = 0.15; clusters = 0;
    cluster_radius = 0.0 }

let clustered density =
  { (uniform density) with clusters = 3; cluster_radius = 0.15 }

let pick_kind rng p =
  let x = Rng.float rng 1.0 in
  if x < p.frac_open then Stuck_open
  else if x < p.frac_open +. p.frac_closed then Stuck_closed
  else Bridge

let m_chips = Nxc_obs.Metrics.counter "defect.chips_generated"

let generate_unchecked rng ~rows ~cols p =
  Nxc_obs.Metrics.incr m_chips;
  let map = Array.make_matrix rows cols None in
  if p.clusters = 0 then
    for r = 0 to rows - 1 do
      for c = 0 to cols - 1 do
        if Rng.bool rng p.density then map.(r).(c) <- Some (pick_kind rng p)
      done
    done
  else begin
    (* clustered: the same expected count, but density is redistributed
       around randomly placed centers with a uniform background *)
    let centers =
      Array.init p.clusters (fun _ ->
          (Rng.int rng rows, Rng.int rng cols))
    in
    let radius = p.cluster_radius *. float_of_int (max rows cols) in
    let background = p.density /. 4.0 in
    let boosted = p.density *. 4.0 in
    for r = 0 to rows - 1 do
      for c = 0 to cols - 1 do
        let near =
          Array.exists
            (fun (cr, cc) ->
              let dr = float_of_int (r - cr) and dc = float_of_int (c - cc) in
              sqrt ((dr *. dr) +. (dc *. dc)) <= radius)
            centers
        in
        let d = if near then boosted else background in
        if Rng.bool rng (min 1.0 d) then map.(r).(c) <- Some (pick_kind rng p)
      done
    done
  end;
  { rows; cols; map; bits = bits_of_map ~rows ~cols map }

let generate rng ~rows ~cols p =
  if rows <= 0 || cols <= 0 then invalid_arg "Defect.generate";
  match validate_profile p with
  | Ok p -> generate_unchecked rng ~rows ~cols p
  | Error e -> invalid_arg ("Defect.generate: " ^ Nxc_guard.Error.to_string e)

let rows t = t.rows
let cols t = t.cols

let kind_at t r c =
  if r < 0 || r >= t.rows || c < 0 || c >= t.cols then
    invalid_arg "Defect.kind_at";
  t.map.(r).(c)

let is_defective t r c = kind_at t r c <> None

let count t =
  Array.fold_left
    (fun acc row ->
      Array.fold_left (fun acc k -> if k = None then acc else acc + 1) acc row)
    0 t.map

let actual_density t = float_of_int (count t) /. float_of_int (t.rows * t.cols)

let perfect ~rows ~cols =
  if rows <= 0 || cols <= 0 then invalid_arg "Defect.perfect";
  { rows; cols;
    map = Array.make_matrix rows cols None;
    bits = Array.make_matrix rows (Bitslice.words_for cols) 0 }

let with_defect t r c k =
  ignore (kind_at t r c);
  let map = Array.map Array.copy t.map in
  map.(r).(c) <- Some k;
  let bits = Array.map Array.copy t.bits in
  bits.(r).(c / Bitslice.word_bits) <-
    bits.(r).(c / Bitslice.word_bits) lor (1 lsl (c mod Bitslice.word_bits));
  { t with map; bits }

let word_cols t = Bitslice.words_for t.cols

let row_words t r =
  if r < 0 || r >= t.rows then invalid_arg "Defect.row_words";
  t.bits.(r)

(* per-domain column-mask buffer: selection checks run inside the BISM
   Monte-Carlo inner loop and must not allocate *)
type sel_scratch = { mutable mask : int array }

let sel_key = Domain.DLS.new_key (fun () -> { mask = [||] })

let selection_defect_free t ~sel_rows ~sel_cols =
  let nw = Bitslice.words_for t.cols in
  let s = Domain.DLS.get sel_key in
  if Array.length s.mask < nw then s.mask <- Array.make nw 0
  else Array.fill s.mask 0 nw 0;
  let mask = s.mask in
  Array.iter
    (fun c ->
      if c < 0 || c >= t.cols then invalid_arg "Defect.selection_defect_free";
      mask.(c / Bitslice.word_bits) <-
        mask.(c / Bitslice.word_bits) lor (1 lsl (c mod Bitslice.word_bits)))
    sel_cols;
  Array.for_all
    (fun r ->
      if r < 0 || r >= t.rows then invalid_arg "Defect.selection_defect_free";
      let bw = t.bits.(r) in
      let hit = ref 0 in
      for w = 0 to nw - 1 do
        hit := !hit lor (bw.(w) land mask.(w))
      done;
      !hit = 0)
    sel_rows
