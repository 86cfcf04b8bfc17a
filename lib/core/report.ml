let dims_str = function
  | None -> "-"
  | Some (r, c) -> Printf.sprintf "%dx%d" r c

let area = function None -> None | Some (r, c) -> Some (r * c)

let size_header =
  Printf.sprintf "%-12s %3s  %-7s %-7s %-7s %-7s %-7s %5s" "name" "n" "diode"
    "fet" "ar" "dec" "dred" "best"

let size_row (s : Synth.sizes) =
  Printf.sprintf "%-12s %3d  %-7s %-7s %-7s %-7s %-7s %5d" s.Synth.name
    s.Synth.n_vars
    (dims_str s.Synth.diode_size)
    (dims_str s.Synth.fet_size)
    (dims_str (Some s.Synth.ar_size))
    (dims_str (Some s.Synth.dec_size))
    (dims_str s.Synth.dred_size)
    s.Synth.best_lattice_area

let ratio_stats rows extract =
  (* mean of (two-terminal area / best lattice area) over defined rows *)
  let ratios =
    List.filter_map
      (fun s ->
        match area (extract s) with
        | Some a when s.Synth.best_lattice_area > 0 ->
            Some (float_of_int a /. float_of_int s.Synth.best_lattice_area)
        | _ -> None)
      rows
  in
  match ratios with
  | [] -> (0, 0.0)
  | rs ->
      ( List.length (List.filter (fun r -> r > 1.0) rs),
        List.fold_left ( +. ) 0.0 rs /. float_of_int (List.length rs) )

let comparison_summary rows =
  let n = List.length rows in
  let diode_wins, diode_ratio = ratio_stats rows (fun s -> s.Synth.diode_size) in
  let fet_wins, fet_ratio = ratio_stats rows (fun s -> s.Synth.fet_size) in
  let dec_improves =
    List.length
      (List.filter
         (fun s ->
           let ar = fst s.Synth.ar_size * snd s.Synth.ar_size in
           let dec = fst s.Synth.dec_size * snd s.Synth.dec_size in
           dec < ar)
         rows)
  in
  Printf.sprintf
    "lattice smaller than diode on %d/%d (mean diode/lattice area %.2fx); \
     smaller than FET on %d/%d (mean %.2fx); decomposition improved %d/%d"
    diode_wins n diode_ratio fet_wins n fet_ratio dec_improves n

let size_table rows =
  String.concat "\n"
    ((size_header :: List.map size_row rows) @ [ ""; comparison_summary rows ])
