module Guard = Nxc_guard
module Bitslice = Nxc_logic.Bitslice

type selection = { sel_rows : int array; sel_cols : int array }

let recovered_k sel = min (Array.length sel.sel_rows) (Array.length sel.sel_cols)

(* the kept-column word mask shared by the scans below *)
let fill_colmask mask ~n_c keep_c =
  Array.fill mask 0 (Array.length mask) 0;
  for c = 0 to n_c - 1 do
    if keep_c.(c) then
      mask.(c / Bitslice.word_bits) <-
        mask.(c / Bitslice.word_bits) lor (1 lsl (c mod Bitslice.word_bits))
  done

(* Greedy deletion on index sets represented as boolean keep-masks.
   Deletion never restores a line and the final balance keeps the
   smaller side, so once fewer than [k] rows or columns survive no
   selection of side [k] can come out: [None] right there. *)
let greedy_down_to chip ~k =
  let n_r = Defect.rows chip and n_c = Defect.cols chip in
  let keep_r = Array.make n_r true and keep_c = Array.make n_c true in
  let alive_r = ref n_r and alive_c = ref n_c in
  (* count buffers hoisted out of the deletion loop: [defects_left] runs
     once per deleted line, every iteration of the yield Monte-Carlo *)
  let row_cnt = Array.make n_r 0 and col_cnt = Array.make n_c 0 in
  let nw = Defect.word_cols chip in
  let colmask = Array.make nw 0 in
  let defects_left () =
    let worst_r = ref (-1) and worst_rc = ref 0 in
    let worst_c = ref (-1) and worst_cc = ref 0 in
    Array.fill row_cnt 0 n_r 0;
    Array.fill col_cnt 0 n_c 0;
    let any = ref false in
    (* word scan over the defect bitmaps: only words with surviving
       defects pay a per-bit visit, so the common sparse case costs one
       AND per word *)
    fill_colmask colmask ~n_c keep_c;
    for r = 0 to n_r - 1 do
      if keep_r.(r) then begin
        let words = Defect.row_words chip r in
        for w = 0 to nw - 1 do
          let m = words.(w) land colmask.(w) in
          if m <> 0 then begin
            any := true;
            row_cnt.(r) <- row_cnt.(r) + Bitslice.popcount m;
            Bitslice.iter_set m (fun b ->
                let c = (w * Bitslice.word_bits) + b in
                col_cnt.(c) <- col_cnt.(c) + 1)
          end
        done
      end
    done;
    for r = 0 to n_r - 1 do
      if keep_r.(r) && row_cnt.(r) > !worst_rc then begin
        worst_rc := row_cnt.(r);
        worst_r := r
      end
    done;
    for c = 0 to n_c - 1 do
      if keep_c.(c) && col_cnt.(c) > !worst_cc then begin
        worst_cc := col_cnt.(c);
        worst_c := c
      end
    done;
    if not !any then None else Some (!worst_r, !worst_rc, !worst_c, !worst_cc)
  in
  let rec loop () =
    if min !alive_r !alive_c < k then false
    else
      match defects_left () with
      | None -> true
      | Some (r, rc, c, cc) ->
          (* delete the line with more defects; on ties shrink the side
             that is currently larger to stay near-square *)
          let delete_row =
            if rc > cc then true
            else if cc > rc then false
            else !alive_r >= !alive_c
          in
          if delete_row then begin
            keep_r.(r) <- false;
            decr alive_r
          end
          else begin
            keep_c.(c) <- false;
            decr alive_c
          end;
          loop ()
  in
  if not (loop ()) then None
  else begin
    let rows =
      Array.of_list (List.filter (fun r -> keep_r.(r)) (List.init n_r Fun.id))
    in
    let cols =
      Array.of_list (List.filter (fun c -> keep_c.(c)) (List.init n_c Fun.id))
    in
    (* balance to a square selection *)
    let side = min (Array.length rows) (Array.length cols) in
    Some { sel_rows = Array.sub rows 0 side; sel_cols = Array.sub cols 0 side }
  end

let greedy_max chip = Option.get (greedy_down_to chip ~k:0)

let extract chip ~k =
  Option.map
    (fun sel ->
      { sel_rows = Array.sub sel.sel_rows 0 k;
        sel_cols = Array.sub sel.sel_cols 0 k })
    (greedy_down_to chip ~k)

(* Exact branch and bound: at each step find a defective cell inside the
   current selection and branch on deleting its row or its column,
   for at most [max_nodes] nodes. *)
let max_nodes = 2_000_000

let exact_max chip =
  let guard = Guard.Budget.current () in
  let n_r = Defect.rows chip and n_c = Defect.cols chip in
  let best = ref { sel_rows = [||]; sel_cols = [||] } in
  let nodes = ref 0 in
  let nw = Defect.word_cols chip in
  let colmask = Array.make nw 0 in
  let exception Out_of_budget in
  let rec go keep_r keep_c alive_r alive_c =
    incr nodes;
    if !nodes > max_nodes || not (Guard.Budget.step guard) then
      raise Out_of_budget;
    if min alive_r alive_c <= recovered_k !best then () (* bound *)
    else begin
      (* find the first defective cell in the selection (ascending row,
         then column — same order the scalar probe scan used) *)
      let cell = ref None in
      fill_colmask colmask ~n_c keep_c;
      (try
         for r = 0 to n_r - 1 do
           if keep_r.(r) then begin
             let words = Defect.row_words chip r in
             for w = 0 to nw - 1 do
               let m = words.(w) land colmask.(w) in
               if m <> 0 && !cell = None then begin
                 cell :=
                   Some (r, (w * Bitslice.word_bits) + Bitslice.lowest_set m);
                 raise Exit
               end
             done
           end
         done
       with Exit -> ());
      match !cell with
      | None ->
          let rows =
            Array.of_list
              (List.filter (fun r -> keep_r.(r)) (List.init n_r Fun.id))
          in
          let cols =
            Array.of_list
              (List.filter (fun c -> keep_c.(c)) (List.init n_c Fun.id))
          in
          let k = min (Array.length rows) (Array.length cols) in
          if k > recovered_k !best then
            best :=
              { sel_rows = Array.sub rows 0 k; sel_cols = Array.sub cols 0 k }
      | Some (r, c) ->
          let keep_r' = Array.copy keep_r in
          keep_r'.(r) <- false;
          go keep_r' keep_c (alive_r - 1) alive_c;
          let keep_c' = Array.copy keep_c in
          keep_c'.(c) <- false;
          go keep_r keep_c' alive_r (alive_c - 1)
    end
  in
  (try go (Array.make n_r true) (Array.make n_c true) n_r n_c
   with Out_of_budget -> Guard.Budget.degrade "exact_to_greedy");
  (* the greedy result is a valid lower bound; keep the better one *)
  let g = greedy_max chip in
  if recovered_k g > recovered_k !best then g else !best

type cost = {
  flow : string;
  map_entries_per_chip : int;
  design_runs : int;
  per_chip_mapping_steps : int;
  total_steps : int;
}

let aware_cost ~n ~chips ~apps =
  let map = n * n in
  let mapping = n * n in
  { flow = "defect-aware";
    map_entries_per_chip = map;
    design_runs = chips * apps;  (* modified design repeated per chip *)
    per_chip_mapping_steps = mapping;
    total_steps = chips * ((apps * mapping) + map) }

let unaware_cost ~n ~k ~chips ~apps =
  let map = 2 * n in
  (* recovered row/col index lists *)
  let mapping = 2 * k in
  { flow = "defect-unaware";
    map_entries_per_chip = map;
    design_runs = apps;  (* designs target the universal k x k array *)
    per_chip_mapping_steps = mapping;
    total_steps = (chips * ((apps * mapping) + map)) + apps }

let pp_cost ppf c =
  Format.fprintf ppf
    "%-14s  map O(%d)/chip  design runs %d  mapping %d steps/chip/app  total %d"
    c.flow c.map_entries_per_chip c.design_runs c.per_chip_mapping_steps
    c.total_steps

let site_compatible kind (site : Nxc_lattice.Lattice.site) =
  match (kind, site) with
  | None, _ -> true
  | Some Defect.Stuck_open, Nxc_lattice.Lattice.Zero -> true
  | Some Defect.Stuck_closed, Nxc_lattice.Lattice.One -> true
  | Some (Defect.Stuck_open | Defect.Stuck_closed | Defect.Bridge), _ -> false

let place_lattice rng chip lattice ~attempts =
  let guard = Guard.Budget.current () in
  let lr = Nxc_lattice.Lattice.rows lattice
  and lc = Nxc_lattice.Lattice.cols lattice in
  if lr > Defect.rows chip || lc > Defect.cols chip then None
  else begin
    let conflicts rows cols =
      let per_row = Array.make lr 0 and per_col = Array.make lc 0 in
      let total = ref 0 in
      Array.iteri
        (fun r pr ->
          Array.iteri
            (fun c pc ->
              if
                not
                  (site_compatible (Defect.kind_at chip pr pc)
                     (Nxc_lattice.Lattice.site lattice r c))
              then begin
                per_row.(r) <- per_row.(r) + 1;
                per_col.(c) <- per_col.(c) + 1;
                incr total
              end)
            cols)
        rows;
      (!total, per_row, per_col)
    in
    let fresh used pool =
      let unused =
        List.filter
          (fun p -> not (Array.exists (( = ) p) used))
          (List.init pool Fun.id)
      in
      match unused with
      | [] -> None
      | l -> Some (List.nth l (Rng.int rng (List.length l)))
    in
    let result = ref None in
    let attempt = ref 0 in
    while !result = None && !attempt < attempts && Guard.Budget.step guard do
      incr attempt;
      let rows = Rng.sample_without_replacement rng lr (Defect.rows chip) in
      let cols = Rng.sample_without_replacement rng lc (Defect.cols chip) in
      (* bounded greedy repair: re-draw the worst row or column *)
      let steps = ref 0 in
      let continue_ = ref true in
      while !continue_ && !steps < 4 * (lr + lc) && Guard.Budget.alive guard do
        incr steps;
        let total, per_row, per_col = conflicts rows cols in
        if total = 0 then begin
          result := Some (Array.copy rows, Array.copy cols);
          continue_ := false
        end
        else begin
          let wr = ref 0 and wc = ref 0 in
          Array.iteri (fun i v -> if v > per_row.(!wr) then wr := i) per_row;
          Array.iteri (fun i v -> if v > per_col.(!wc) then wc := i) per_col;
          let replaced =
            if per_row.(!wr) >= per_col.(!wc) then
              match fresh rows (Defect.rows chip) with
              | Some p ->
                  rows.(!wr) <- p;
                  true
              | None -> false
            else
              match fresh cols (Defect.cols chip) with
              | Some p ->
                  cols.(!wc) <- p;
                  true
              | None -> false
          in
          if not replaced then continue_ := false
        end
      done
    done;
    !result
  end

type sweep = { sweep_chips : int; placed_unaware : int; placed_aware : int }

let placement_sweep ?pool rng ~lattice ~chips ~n ~profile ~attempts =
  if chips <= 0 then invalid_arg "Defect_flow.placement_sweep: chips";
  let need =
    max (Nxc_lattice.Lattice.rows lattice) (Nxc_lattice.Lattice.cols lattice)
  in
  let per =
    Rng.map_trials ?pool rng ~trials:chips (fun r ->
        let chip = Defect.generate r ~rows:n ~cols:n profile in
        let unaware = recovered_k (greedy_max chip) >= need in
        (* [place_lattice] reads the ambient budget, which the pool
           points at this slot's slice *)
        let aware = place_lattice r chip lattice ~attempts <> None in
        (unaware, aware))
  in
  { sweep_chips = chips;
    placed_unaware =
      Array.fold_left (fun a (u, _) -> if u then a + 1 else a) 0 per;
    placed_aware =
      Array.fold_left (fun a (_, w) -> if w then a + 1 else a) 0 per }
