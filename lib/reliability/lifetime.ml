type summary = {
  horizon : int;
  new_defects : int;
  hits : int;
  checks : int;
  remaps : int;
  remap_configs : int;
  corrupt_steps : int;
  survived : bool;
  lifetime : int;
}

let availability s =
  if s.lifetime = 0 then 0.0
  else
    float_of_int (s.lifetime - s.corrupt_steps) /. float_of_int s.lifetime

let simulate rng ~chip ~k ~horizon ~failure_rate ~check_interval =
  if check_interval <= 0 then invalid_arg "Lifetime.simulate: check_interval";
  if horizon <= 0 then invalid_arg "Lifetime.simulate: horizon";
  let rows = Defect.rows chip and cols = Defect.cols chip in
  (* mutable aging copy of the chip *)
  let aged = ref chip in
  let stats0, mapping0 =
    Bism.run rng Bism.Greedy ~chip ~k_rows:k ~k_cols:k ~max_configs:500
  in
  if not stats0.Bism.success then
    invalid_arg "Lifetime.simulate: chip cannot host the array at all";
  let mapping = ref (Option.get mapping0) in
  let new_defects = ref 0
  and hits = ref 0
  and checks = ref 0
  and remaps = ref 0
  and remap_configs = ref 0
  and corrupt_steps = ref 0 in
  let survived = ref true in
  let step = ref 0 in
  while !survived && !step < horizon do
    incr step;
    (* aging: one random crosspoint may fail this step *)
    if Rng.bool rng failure_rate then begin
      let r = Rng.int rng rows and c = Rng.int rng cols in
      if not (Defect.is_defective !aged r c) then begin
        incr new_defects;
        let kind =
          if Rng.bool rng 0.8 then Defect.Stuck_open else Defect.Stuck_closed
        in
        aged := Defect.with_defect !aged r c kind;
        if
          Array.exists (( = ) r) !mapping.Bism.row_map
          && Array.exists (( = ) c) !mapping.Bism.col_map
        then incr hits
      end
    end;
    (* silent corruption until the next periodic check *)
    if not (Bism.mapping_defect_free !aged !mapping) then incr corrupt_steps;
    if !step mod check_interval = 0 then begin
      incr checks;
      if not (Bism.mapping_defect_free !aged !mapping) then begin
        let stats, m =
          Bism.run rng Bism.Greedy ~chip:!aged ~k_rows:k ~k_cols:k
            ~max_configs:500
        in
        remap_configs := !remap_configs + stats.Bism.configurations;
        match m with
        | Some m ->
            incr remaps;
            mapping := m
        | None -> survived := false
      end
    end
  done;
  { horizon;
    new_defects = !new_defects;
    hits = !hits;
    checks = !checks;
    remaps = !remaps;
    remap_configs = !remap_configs;
    corrupt_steps = !corrupt_steps;
    survived = !survived;
    lifetime = !step }

let monte_carlo ?pool rng ~chip ~k ~trials ~horizon ~failure_rate
    ~check_interval =
  if trials <= 0 then invalid_arg "Lifetime.monte_carlo: trials";
  Rng.map_trials ?pool rng ~trials (fun r ->
      simulate r ~chip ~k ~horizon ~failure_rate ~check_interval)
