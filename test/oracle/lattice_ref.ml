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
let synthesize_with ~var ~pol f =
  let n = Boolfunc.n_vars f in
  match Boolfunc.is_const f with
  | Some b -> Compose.of_const n b
  | None -> (
      let d = Pcircuit.decompose ~var ~pol f in
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
let decompose f =
  let n = Boolfunc.n_vars f in
  if n = 0 then Compose.of_const 1 (Boolfunc.eval_int f 0)
  else
    let lattices =
      List.concat_map
        (fun var ->
          [ synthesize_with ~var ~pol:false f;
            synthesize_with ~var ~pol:true f ])
        (List.init n Fun.id)
    in
    List.fold_left
      (fun best l -> if Lattice.area l < Lattice.area best then l else best)
      (List.hd lattices) (List.tl lattices)

(** Structural equality: same arity, same sites. *)
let equal a b =
  Lattice.n_vars a = Lattice.n_vars b && Lattice.sites a = Lattice.sites b

(** Whether some 4-connected path of conducting sites joins the left
    edge to the right edge under assignment [m] — the scalar
    left-to-right reading of a lattice, by breadth-first search. *)
let eval_lr l m =
  let rows = Lattice.rows l and cols = Lattice.cols l in
  let conducts r c =
    match Lattice.site l r c with
    | Lattice.Zero -> false
    | Lattice.One -> true
    | Lattice.Lit (v, p) -> (m land (1 lsl v) <> 0) = (p = Cube.Pos)
  in
  let seen = Array.make_matrix rows cols false in
  let queue = Queue.create () in
  let visit r c =
    if r >= 0 && r < rows && c >= 0 && c < cols && (not seen.(r).(c))
       && conducts r c
    then begin
      seen.(r).(c) <- true;
      Queue.add (r, c) queue
    end
  in
  for r = 0 to rows - 1 do
    visit r 0
  done;
  let reached = ref false in
  while (not !reached) && not (Queue.is_empty queue) do
    let r, c = Queue.pop queue in
    if c = cols - 1 then reached := true
    else List.iter (fun (r', c') -> visit r' c') [ (r - 1, c); (r + 1, c); (r, c - 1); (r, c + 1) ]
  done;
  !reached
