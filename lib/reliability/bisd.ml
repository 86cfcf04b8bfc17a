module Fm = Fault_model

type location = { cand_rows : int list; cand_cols : int list }

let diagnose plan ~universe ~syndrome =
  (* pack once: the sweep below replays the whole plan per candidate *)
  let pd = Bist.pack plan in
  List.filter (fun f -> Bist.syndrome_packed pd f = syndrome) universe

let config_kind plan ci = (List.nth plan.Bist.configs ci).Bist.kind

let decode_row_code plan syndrome =
  (* group configurations that saw at least one failure *)
  let failing_groups =
    List.filter_map
      (fun (ci, _) ->
        match config_kind plan ci with
        | Bist.Group { bit; value } -> Some (bit, value)
        | Bist.Diagonal _ -> None)
      syndrome
    |> List.sort_uniq compare
  in
  if failing_groups = [] then None
  else
    (* each bit must fail on exactly one polarity *)
    let bits = List.sort_uniq compare (List.map fst failing_groups) in
    let consistent =
      List.for_all
        (fun b ->
          List.length (List.filter (fun (b', _) -> b' = b) failing_groups) = 1)
        bits
    in
    if not consistent then None
    else
      let row =
        List.fold_left
          (fun acc (b, v) -> if v then acc lor (1 lsl b) else acc)
          0 failing_groups
      in
      (* bits with no failing group must be 0-valued or simply
         unsensitized; reconstruct only when the row is in range *)
      if row < plan.Bist.rows then Some row else None

let syndrome_resources plan syndrome =
  (* rows/cols directly implicated by failing tests: the rows observed
     and the vector's distinguished column *)
  let rows = Hashtbl.create 8 and cols = Hashtbl.create 8 in
  List.iter
    (fun (ci, vi) ->
      let tc = List.nth plan.Bist.configs ci in
      let t = List.nth tc.Bist.tests vi in
      (match tc.Bist.kind with
      | Bist.Group _ ->
          (* walking-0 vector index identifies a column *)
          Array.iteri
            (fun c b -> if not b then Hashtbl.replace cols c ())
            t.Bist.vector
      | Bist.Diagonal _ ->
          (* one-hot vector identifies the probed column and its row *)
          Array.iteri
            (fun c b ->
              if b then begin
                Hashtbl.replace cols c ();
                Array.iteri
                  (fun r row ->
                    if tc.Bist.config.Fm.observed.(r) && row.(c) then
                      Hashtbl.replace rows r ())
                  tc.Bist.config.Fm.programmed
              end)
            t.Bist.vector);
      ())
    syndrome;
  ( Hashtbl.fold (fun r () acc -> r :: acc) rows [] |> List.sort compare,
    Hashtbl.fold (fun c () acc -> c :: acc) cols [] |> List.sort compare )

let locate plan ~universe ~syndrome =
  match diagnose plan ~universe ~syndrome with
  | [] ->
      let rows, cols = syndrome_resources plan syndrome in
      { cand_rows = rows; cand_cols = cols }
  | candidates ->
      let rows =
        List.filter_map Fm.fault_row candidates |> List.sort_uniq compare
      in
      let cols =
        List.filter_map Fm.fault_col candidates |> List.sort_uniq compare
      in
      { cand_rows = rows; cand_cols = cols }

let num_group_configs plan =
  List.length
    (List.filter
       (fun tc -> match tc.Bist.kind with Bist.Group _ -> true | _ -> false)
       plan.Bist.configs)
