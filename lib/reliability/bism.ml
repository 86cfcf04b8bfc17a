

module Obs = Nxc_obs
module Guard = Nxc_guard
module Bitslice = Nxc_logic.Bitslice

let m_runs = Obs.Metrics.counter "bism.runs"
let m_successes = Obs.Metrics.counter "bism.successes"
let m_configurations = Obs.Metrics.counter "bism.configurations"
let m_remap_attempts = Obs.Metrics.counter "bism.remap_attempts"
let m_test_applications = Obs.Metrics.counter "bism.test_applications"
let h_configs = Obs.Metrics.hdr "bism.configs_per_run"

type scheme = Blind | Greedy | Hybrid of int

type stats = {
  success : bool;
  configurations : int;
  test_applications : int;
  diagnoses : int;
}

type mapping = { row_map : int array; col_map : int array }

let mapping_defect_free chip mapping =
  (* word-parallel cross-product probe; equivalent to for_all over
     [Defect.is_defective] on every (row, col) pair of the mapping *)
  Defect.selection_defect_free chip ~sel_rows:mapping.row_map
    ~sel_cols:mapping.col_map

let random_mapping rng chip ~k_rows ~k_cols =
  { row_map = Rng.sample_without_replacement rng k_rows (Defect.rows chip);
    col_map = Rng.sample_without_replacement rng k_cols (Defect.cols chip) }

(* Scratch of the diagnose/remap loop, allocated once per greedy phase
   so that the loop itself allocates nothing.  [row_used]/[col_used]
   mark the physical lines the mapping holds; the counts are the
   defects of each logical line not yet covered by a chosen line; the
   chosen logical lines are kept in choice order. *)
type remap = {
  row_used : Bytes.t;
  col_used : Bytes.t;
  row_count : int array;
  col_count : int array;
  chosen_rows : int array;
  chosen_cols : int array;
  mutable n_rows : int;
  mutable n_cols : int;
}

let remap_scratch chip m =
  let used n map =
    let b = Bytes.make n '\000' in
    Array.iter (fun p -> Bytes.set b p '\001') map;
    b
  in
  let kr = Array.length m.row_map and kc = Array.length m.col_map in
  { row_used = used (Defect.rows chip) m.row_map;
    col_used = used (Defect.cols chip) m.col_map;
    row_count = Array.make kr 0;
    col_count = Array.make kc 0;
    chosen_rows = Array.make kr 0;
    chosen_cols = Array.make kc 0;
    n_rows = 0;
    n_cols = 0 }

let defective_bit words c =
  (words.(c / Bitslice.word_bits) lsr (c mod Bitslice.word_bits)) land 1 = 1

(* BISD on a failing configuration: count the defective cells of the
   mapping per logical row and column, straight from the defect
   bitmaps; returns the total *)
let count_defects chip m s =
  Array.fill s.row_count 0 (Array.length s.row_count) 0;
  Array.fill s.col_count 0 (Array.length s.col_count) 0;
  let total = ref 0 in
  for lr = 0 to Array.length m.row_map - 1 do
    let words = Defect.row_words chip m.row_map.(lr) in
    for lc = 0 to Array.length m.col_map - 1 do
      if defective_bit words m.col_map.(lc) then begin
        s.row_count.(lr) <- s.row_count.(lr) + 1;
        s.col_count.(lc) <- s.col_count.(lc) + 1;
        incr total
      end
    done
  done;
  !total

(* first index of the maximum: the tie rule of the replacement choice *)
let argmax a =
  let best = ref 0 in
  for i = 1 to Array.length a - 1 do
    if a.(i) > a.(!best) then best := i
  done;
  !best

(* greedy resource replacement: cover the defective cells with a
   minimal-ish set of logical rows/columns (the line with the most
   uncovered defects first, rows on ties), to be re-drawn from the
   unused physical pool.  Choosing a line takes its uncovered defects
   off the crossing lines' counts.  A line whose count is 0 has no
   uncovered defect, whether or not it was chosen, so only positive
   counts are decremented. *)
let replacement_sets chip m s ~defects =
  s.n_rows <- 0;
  s.n_cols <- 0;
  let remaining = ref defects in
  while !remaining > 0 do
    let br = argmax s.row_count and bc = argmax s.col_count in
    if s.row_count.(br) >= s.col_count.(bc) then begin
      remaining := !remaining - s.row_count.(br);
      s.row_count.(br) <- 0;
      let words = Defect.row_words chip m.row_map.(br) in
      for lc = 0 to Array.length m.col_map - 1 do
        if s.col_count.(lc) > 0 && defective_bit words m.col_map.(lc) then
          s.col_count.(lc) <- s.col_count.(lc) - 1
      done;
      s.chosen_rows.(s.n_rows) <- br;
      s.n_rows <- s.n_rows + 1
    end
    else begin
      remaining := !remaining - s.col_count.(bc);
      s.col_count.(bc) <- 0;
      let pc = m.col_map.(bc) in
      for lr = 0 to Array.length m.row_map - 1 do
        if
          s.row_count.(lr) > 0
          && defective_bit (Defect.row_words chip m.row_map.(lr)) pc
        then s.row_count.(lr) <- s.row_count.(lr) - 1
      done;
      s.chosen_cols.(s.n_cols) <- bc;
      s.n_cols <- s.n_cols + 1
    end
  done

(* Move logical line [i] of [map] to the [Rng.int rng free]-th unused
   physical line in ascending order; [free] is the number of unused
   lines (the pool minus the mapping's distinct lines).  [false], with
   no draw, when none is left. *)
let fresh_resource rng used map i ~free =
  if free = 0 then false
  else begin
    let j = ref (Rng.int rng free) and p = ref 0 in
    while Bytes.get used !p <> '\000' || !j > 0 do
      if Bytes.get used !p = '\000' then decr j;
      incr p
    done;
    Bytes.set used map.(i) '\000';
    Bytes.set used !p '\001';
    map.(i) <- !p;
    true
  end

let check_feasible chip ~k_rows ~k_cols =
  if k_rows > Defect.rows chip || k_cols > Defect.cols chip then
    invalid_arg "Bism.run: logical array larger than the chip";
  if k_rows <= 0 || k_cols <= 0 then invalid_arg "Bism.run: empty array"

let run rng scheme ~chip ~k_rows ~k_cols ~max_configs =
  check_feasible chip ~k_rows ~k_cols;
  let guard = Guard.Budget.current () in
  Obs.Metrics.incr m_runs;
  Obs.Span.with_ ~name:"bism.run"
    ~attrs:(fun () ->
      [ ("k_rows", Obs.Json.Int k_rows); ("k_cols", Obs.Json.Int k_cols) ])
  @@ fun () ->
  let tests_per_config = k_rows * k_cols in
  let configurations = ref 0
  and test_applications = ref 0
  and diagnoses = ref 0 in
  (* one guard step per programmed configuration: the expensive unit of
     BISM work.  A dead guard makes every loop below wind down to the
     usual "not mapped" outcome instead of raising. *)
  let config_allowed () =
    !configurations < max_configs && Guard.Budget.step guard
  in
  let try_mapping m =
    incr configurations;
    test_applications := !test_applications + tests_per_config;
    mapping_defect_free chip m
  in
  let blind_step () =
    let m = random_mapping rng chip ~k_rows ~k_cols in
    if try_mapping m then Some m else None
  in
  let greedy_loop m =
    let s = remap_scratch chip m in
    let free_rows = Defect.rows chip - k_rows
    and free_cols = Defect.cols chip - k_cols in
    (* re-draw the chosen lines, each side latest choice first *)
    let redraw used map chosen n ~free =
      let ok = ref true and i = ref (n - 1) in
      while !ok && !i >= 0 do
        ok := fresh_resource rng used map chosen.(!i) ~free;
        decr i
      done;
      !ok
    in
    let rec loop () =
      if not (config_allowed ()) then None
      else if try_mapping m then Some m
      else begin
        incr diagnoses;
        replacement_sets chip m s ~defects:(count_defects chip m s);
        if
          redraw s.row_used m.row_map s.chosen_rows s.n_rows ~free:free_rows
          && redraw s.col_used m.col_map s.chosen_cols s.n_cols
               ~free:free_cols
        then loop ()
        else None
      end
    in
    loop ()
  in
  let rec blind_loop () =
    if not (config_allowed ()) then None
    else match blind_step () with Some m -> Some m | None -> blind_loop ()
  in
  let result =
    match scheme with
    | Blind -> blind_loop ()
    | Greedy -> greedy_loop (random_mapping rng chip ~k_rows ~k_cols)
    | Hybrid blind_budget ->
        let rec blind_phase () =
          if
            !configurations >= min blind_budget max_configs
            || not (Guard.Budget.step guard)
          then None
          else
            match blind_step () with
            | Some m -> Some m
            | None -> blind_phase ()
        in
        (match blind_phase () with
        | Some m -> Some m
        | None ->
            if !configurations >= max_configs then None
            else greedy_loop (random_mapping rng chip ~k_rows ~k_cols))
  in
  if result <> None then Obs.Metrics.incr m_successes;
  Obs.Metrics.add m_configurations !configurations;
  Obs.Metrics.add m_remap_attempts !diagnoses;
  Obs.Metrics.add m_test_applications !test_applications;
  Obs.Metrics.hdr_observe h_configs !configurations;
  ( { success = result <> None;
      configurations = !configurations;
      test_applications = !test_applications;
      diagnoses = !diagnoses },
    result )

type mc = {
  mc_trials : int;
  mc_mapped : int;
  mc_avg_configs : float;
  mc_avg_tests : float;
  mc_avg_diagnoses : float;
}

let monte_carlo ?pool rng scheme ~trials ~n ~profile ~k_rows ~k_cols
    ~max_configs =
  if trials <= 0 then invalid_arg "Bism.monte_carlo: trials must be positive";
  Obs.Span.with_ ~name:"bism.monte_carlo"
    ~attrs:(fun () ->
      [ ("trials", Obs.Json.Int trials); ("n", Obs.Json.Int n) ])
  @@ fun () ->
  let per =
    Rng.map_trials ?pool rng ~trials (fun r ->
        let chip = Defect.generate r ~rows:n ~cols:n profile in
        (* [run] reads the ambient budget, which the pool points at this
           slot's partition slice *)
        fst (run r scheme ~chip ~k_rows ~k_cols ~max_configs))
  in
  let sum f = Array.fold_left (fun a s -> a + f s) 0 per in
  let avg f = float_of_int (sum f) /. float_of_int trials in
  ( { mc_trials = trials;
      mc_mapped = sum (fun s -> if s.success then 1 else 0);
      mc_avg_configs = avg (fun s -> s.configurations);
      mc_avg_tests = avg (fun s -> s.test_applications);
      mc_avg_diagnoses = avg (fun s -> s.diagnoses) },
    per )

let pp_stats ppf s =
  Format.fprintf ppf "%s: %d configs, %d tests, %d diagnoses"
    (if s.success then "mapped" else "FAILED")
    s.configurations s.test_applications s.diagnoses
