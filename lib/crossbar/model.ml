type dims = { rows : int; cols : int }

type placement = { dims : dims; connected : bool array array }

let placement_of_matrix m =
  let rows = Array.length m in
  if rows = 0 then invalid_arg "Model.placement_of_matrix: no rows";
  let cols = Array.length m.(0) in
  if cols = 0 then invalid_arg "Model.placement_of_matrix: empty rows";
  Array.iter
    (fun row ->
      if Array.length row <> cols then
        invalid_arg "Model.placement_of_matrix: ragged rows")
    m;
  { dims = { rows; cols }; connected = Array.map Array.copy m }

let programmed p =
  Array.fold_left
    (fun acc row -> Array.fold_left (fun acc b -> if b then acc + 1 else acc) acc row)
    0 p.connected

let iter_programmed f p =
  Array.iteri
    (fun r row -> Array.iteri (fun c b -> if b then f r c) row)
    p.connected

type tech = {
  tech_name : string;
  pitch_nm : float;
  crosspoint_delay_ps : float;
  crosspoint_energy_aj : float;
}

let diode_tech =
  { tech_name = "diode"; pitch_nm = 10.0; crosspoint_delay_ps = 5.0;
    crosspoint_energy_aj = 20.0 }

let fet_tech =
  { tech_name = "fet"; pitch_nm = 12.0; crosspoint_delay_ps = 8.0;
    crosspoint_energy_aj = 12.0 }

let lattice_tech =
  { tech_name = "four-terminal"; pitch_nm = 10.0; crosspoint_delay_ps = 6.0;
    crosspoint_energy_aj = 10.0 }
