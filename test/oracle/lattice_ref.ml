(* Lattice synthesis references: the per-candidate P-circuit
   decomposition, which decomposes and synthesizes its components anew
   for every (var, pol) choice. *)

open Nxc_logic
open Nxc_lattice

(** The lattice of one decomposition branch [lit AND component];
    [None] when the component is constant 0. *)
let branch lit component =
  match Truth_table.is_const component with
  | Some false -> None
  | Some true -> Some lit
  | None ->
      Some
        (Compose.conjunction lit
           (Altun_riedel.synthesize (Boolfunc.make component)))

(** Decompose [f] around [var] with polarity [pol] and compose
    [OR(lit_eq AND L(f_eq), lit_neq AND L(f_neq), L(f_int))]. *)
let synthesize_with ?strategy ~var ~pol f =
  let n = Boolfunc.n_vars f in
  match Boolfunc.is_const f with
  | Some b -> Compose.of_const n b
  | None -> (
      let d = Pcircuit.decompose ?strategy ~var ~pol f in
      let lit_eq = Compose.of_literal n var (if pol then Cube.Pos else Cube.Neg) in
      let lit_neq = Compose.of_literal n var (if pol then Cube.Neg else Cube.Pos) in
      let branches =
        List.filter_map Fun.id
          [ branch lit_eq d.Pcircuit.f_eq;
            branch lit_neq d.Pcircuit.f_neq;
            (match Truth_table.is_const d.Pcircuit.f_int with
            | Some false -> None
            | Some true -> Some (Compose.of_const n true)
            | None ->
                Some (Altun_riedel.synthesize (Boolfunc.make d.Pcircuit.f_int)))
          ]
      in
      match branches with
      | [] -> Compose.of_const n false
      | bs -> Compose.disjunction_list bs)

(** The first strict minimum of the area over every [(var, pol)]
    candidate, var-major with [pol = false] first. *)
let decompose ?strategy f =
  let n = Boolfunc.n_vars f in
  if n = 0 then Compose.of_const 1 (Boolfunc.eval_int f 0)
  else
    let lattices =
      List.concat_map
        (fun var ->
          [ synthesize_with ?strategy ~var ~pol:false f;
            synthesize_with ?strategy ~var ~pol:true f ])
        (List.init n Fun.id)
    in
    List.fold_left
      (fun best l -> if Lattice.area l < Lattice.area best then l else best)
      (List.hd lattices) (List.tl lattices)

(** Structural equality: same arity, same sites. *)
let equal a b =
  Lattice.n_vars a = Lattice.n_vars b && Lattice.sites a = Lattice.sites b
