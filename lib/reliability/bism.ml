

module Obs = Nxc_obs
module Guard = Nxc_guard

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

let defective_cells chip mapping =
  let acc = ref [] in
  Array.iteri
    (fun lr pr ->
      Array.iteri
        (fun lc pc ->
          if Defect.is_defective chip pr pc then acc := (lr, lc) :: !acc)
        mapping.col_map)
    mapping.row_map;
  List.rev !acc

let random_mapping rng chip ~k_rows ~k_cols =
  { row_map = Rng.sample_without_replacement rng k_rows (Defect.rows chip);
    col_map = Rng.sample_without_replacement rng k_cols (Defect.cols chip) }

(* greedy resource replacement: cover the defective cells with a
   minimal-ish set of logical rows/columns, then re-draw those from the
   unused physical pool *)
let replacement_sets defects ~k_rows ~k_cols =
  let row_count = Array.make k_rows 0 and col_count = Array.make k_cols 0 in
  List.iter
    (fun (lr, lc) ->
      row_count.(lr) <- row_count.(lr) + 1;
      col_count.(lc) <- col_count.(lc) + 1)
    defects;
  let rows_to_replace = ref [] and cols_to_replace = ref [] in
  let remaining = ref defects in
  while !remaining <> [] do
    let best_row = ref 0 and best_col = ref 0 in
    Array.iteri (fun i c -> if c > row_count.(!best_row) then best_row := i else ignore c) row_count;
    Array.iteri (fun i c -> if c > col_count.(!best_col) then best_col := i else ignore c) col_count;
    if row_count.(!best_row) >= col_count.(!best_col) then begin
      rows_to_replace := !best_row :: !rows_to_replace;
      remaining := List.filter (fun (lr, _) -> lr <> !best_row) !remaining
    end
    else begin
      cols_to_replace := !best_col :: !cols_to_replace;
      remaining := List.filter (fun (_, lc) -> lc <> !best_col) !remaining
    end;
    (* recount on the reduced defect set *)
    Array.fill row_count 0 k_rows 0;
    Array.fill col_count 0 k_cols 0;
    List.iter
      (fun (lr, lc) ->
        row_count.(lr) <- row_count.(lr) + 1;
        col_count.(lc) <- col_count.(lc) + 1)
      !remaining
  done;
  (!rows_to_replace, !cols_to_replace)

let fresh_resource rng used pool_size =
  let unused =
    List.filter
      (fun p -> not (Array.exists (( = ) p) used))
      (List.init pool_size Fun.id)
  in
  match unused with
  | [] -> None
  | _ -> Some (List.nth unused (Rng.int rng (List.length unused)))

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
  let greedy_loop start =
    (* mutate a copy of the starting mapping *)
    let m = { row_map = Array.copy start.row_map;
              col_map = Array.copy start.col_map } in
    let rec loop () =
      if not (config_allowed ()) then None
      else if try_mapping m then Some m
      else begin
        incr diagnoses;
        let defects = defective_cells chip m in
        let rows_r, cols_r = replacement_sets defects ~k_rows ~k_cols in
        let ok =
          List.for_all
            (fun lr ->
              match fresh_resource rng m.row_map (Defect.rows chip) with
              | Some pr ->
                  m.row_map.(lr) <- pr;
                  true
              | None -> false)
            rows_r
          && List.for_all
               (fun lc ->
                 match fresh_resource rng m.col_map (Defect.cols chip) with
                 | Some pc ->
                     m.col_map.(lc) <- pc;
                     true
                 | None -> false)
               cols_r
        in
        if ok then loop () else None
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
