module Tt = Truth_table

type t = {
  var : int;
  pol : bool;
  f_eq : Tt.t;
  f_neq : Tt.t;
  f_int : Tt.t;
}

type strategy = Projected | Shannon

let decompose ?(strategy = Projected) ~var ~pol f =
  let tt = Boolfunc.table f in
  let n = Tt.n_vars tt in
  if var < 0 || var >= n then invalid_arg "Pcircuit.decompose: var out of range";
  let proj_eq = Tt.cofactor tt var pol in
  let proj_neq = Tt.cofactor tt var (not pol) in
  let inter = Tt.band proj_eq proj_neq in
  match strategy with
  | Projected ->
      { var;
        pol;
        f_eq = Tt.bsub proj_eq inter;
        f_neq = Tt.bsub proj_neq inter;
        f_int = inter }
  | Shannon ->
      { var; pol; f_eq = proj_eq; f_neq = proj_neq; f_int = Tt.create n false }

let selector n var pol =
  (* the literal that is true exactly when [x_var = pol] *)
  let v = Tt.var n var in
  if pol then v else Tt.bnot v

let recompose f d =
  let n = Boolfunc.n_vars f in
  Tt.bor
    (Tt.bor
       (Tt.band (selector n d.var d.pol) d.f_eq)
       (Tt.band (selector n d.var (not d.pol)) d.f_neq))
    d.f_int

let is_valid f d = Tt.equal (recompose f d) (Boolfunc.table f)

let cost d =
  let products tt = Cover.num_cubes (Minimize.sop_table tt) in
  products d.f_eq + products d.f_neq + products d.f_int

let best f =
  let n = Boolfunc.n_vars f in
  if n = 0 then invalid_arg "Pcircuit.best: nullary function";
  let candidates =
    List.concat_map
      (fun var -> [ (var, false); (var, true) ])
      (List.init n Fun.id)
  in
  let scored =
    List.map
      (fun (var, pol) ->
        let d = decompose ~var ~pol f in
        (cost d, d))
      candidates
  in
  let best_pair =
    List.fold_left
      (fun acc (c, d) ->
        match acc with
        | None -> Some (c, d)
        | Some (c', _) when c < c' -> Some (c, d)
        | Some _ -> acc)
      None scored
  in
  match best_pair with
  | Some (_, d) -> d
  | None -> assert false
