module L = Nxc_logic

let drop_row lattice r =
  if Lattice.rows lattice <= 1 then None
  else
    let sites = Lattice.sites lattice in
    let kept =
      Array.of_list
        (List.filteri (fun i _ -> i <> r) (Array.to_list sites))
    in
    Some (Lattice.make ~n_vars:(Lattice.n_vars lattice) kept)

let drop_col lattice c =
  if Lattice.cols lattice <= 1 then None
  else
    let sites = Lattice.sites lattice in
    let kept =
      Array.map
        (fun row ->
          Array.of_list
            (List.filteri (fun j _ -> j <> c) (Array.to_list row)))
        sites
    in
    Some (Lattice.make ~n_vars:(Lattice.n_vars lattice) kept)

let equivalent = Checker.equivalent

(* one pass: first try deletions (big wins), then site weakenings *)
let improve lattice f =
  let try_rows l =
    let rec go r l =
      if r >= Lattice.rows l then l
      else
        match drop_row l r with
        | Some l' when equivalent l' f -> go r l'
        | Some _ | None -> go (r + 1) l
    in
    go 0 l
  in
  let try_cols l =
    let rec go c l =
      if c >= Lattice.cols l then l
      else
        match drop_col l c with
        | Some l' when equivalent l' f -> go c l'
        | Some _ | None -> go (c + 1) l
    in
    go 0 l
  in
  let weaken l =
    let result = ref l in
    for r = 0 to Lattice.rows l - 1 do
      for c = 0 to Lattice.cols l - 1 do
        match Lattice.site !result r c with
        | Lattice.Zero | Lattice.One -> ()
        | Lattice.Lit _ ->
            (* a literal site costs a programmable input; a constant is
               free fabric.  Try both constants. *)
            let replace value =
              Lattice.map
                (fun r' c' s -> if r' = r && c' = c then value else s)
                !result
            in
            let zero = replace Lattice.Zero in
            if equivalent zero f then result := zero
            else
              let one = replace Lattice.One in
              if equivalent one f then result := one
      done
    done;
    !result
  in
  weaken (try_cols (try_rows lattice))

let trim lattice f =
  let rec fixpoint l =
    let l' = improve l f in
    if Lattice.area l' < Lattice.area l then fixpoint l' else l'
  in
  fixpoint lattice
