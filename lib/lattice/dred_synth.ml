module L = Nxc_logic
module Tt = L.Truth_table

let chi_lattice ~n (space : L.Affine.space) =
  match space.L.Affine.constraints with
  | [] -> Compose.of_const n true
  | cs ->
      (* per-constraint conjunction: each parity check is a small AR
         lattice, AND-composed with padding rows.  For multi-check
         spaces this avoids the product blow-up of synthesizing the
         whole characteristic function at once; for single checks the
         direct synthesis is the same thing, so take the smaller. *)
      let composed =
        Compose.conjunction_list
          (List.map
             (fun c ->
               let f = L.Boolfunc.make (L.Affine.constraint_function n c) in
               Altun_riedel.synthesize f)
             cs)
      in
      let direct = Altun_riedel.synthesize (L.Boolfunc.make (L.Affine.chi space)) in
      if Lattice.area direct < Lattice.area composed then direct else composed

let synthesize f =
  let n = L.Boolfunc.n_vars f in
  match L.Affine.d_reduction f with
  | None -> None
  | Some r ->
      let space = r.L.Affine.space in
      let chi = chi_lattice ~n space in
      let projection_lattice =
        match Tt.is_const r.L.Affine.projection with
        | Some true -> None (* chi alone is the function *)
        | Some false -> Some (Compose.of_const n false)
        | None ->
            let map = Array.of_list space.L.Affine.free_vars in
            let lifted = Tt.lift r.L.Affine.projection n map in
            Some (Altun_riedel.synthesize (L.Boolfunc.make lifted))
      in
      (match projection_lattice with
      | None -> Some chi
      | Some pl -> Some (Compose.conjunction chi pl))
