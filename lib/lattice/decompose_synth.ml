module L = Nxc_logic
module Tt = L.Truth_table

(* The lattices of the two candidates around [var], pol = false first.
   The polarity only swaps f_eq and f_neq, so both candidates share one
   decomposition and one [synth] per component.  Each is the OR of
   [lit_eq AND L(f_eq)], [lit_neq AND L(f_neq)] and [L(f_int)], in that
   order; a constant-0 component drops its branch. *)
let polarity_pair ~synth ~var f =
  let n = L.Boolfunc.n_vars f in
  (* with pol = false, f_eq is the x_var = 0 side *)
  let d = L.Pcircuit.decompose ~var ~pol:false f in
  let part lit component =
    match Tt.is_const component with
    | Some false -> None
    | Some true -> Some lit
    | None -> Some (Compose.conjunction lit (synth component))
  in
  let zero = part (Compose.of_literal n var L.Cube.Neg) d.L.Pcircuit.f_eq in
  let one = part (Compose.of_literal n var L.Cube.Pos) d.L.Pcircuit.f_neq in
  let inter =
    match Tt.is_const d.L.Pcircuit.f_int with
    | Some false -> None
    | Some true -> Some (Compose.of_const n true)
    | None -> Some (synth d.L.Pcircuit.f_int)
  in
  let compose branches =
    match List.filter_map Fun.id branches with
    | [] -> Compose.of_const n false
    | bs -> Compose.disjunction_list bs
  in
  (compose [ zero; one; inter ], compose [ one; zero; inter ])

(* A component's lattice: direct Altun–Riedel synthesis, or at
   [depth > 0] a (depth-limited) decomposition when that is smaller. *)
let rec synth_component ~depth component =
  let f = L.Boolfunc.make component in
  let direct = Altun_riedel.synthesize f in
  if depth <= 0 then direct
  else
    let dec = synthesize_at ~depth f in
    if Lattice.area dec < Lattice.area direct then dec else direct

(* Every (var, pol) candidate, var-major and pol = false first; the
   first strict minimum of the area wins. *)
and synthesize_at ~depth f =
  let n = L.Boolfunc.n_vars f in
  match L.Boolfunc.is_const f with
  | Some b -> Compose.of_const (max 1 n) b
  | None ->
      let synth = synth_component ~depth:(depth - 1) in
      let lattices =
        List.concat_map
          (fun var ->
            let l_false, l_true = polarity_pair ~synth ~var f in
            [ l_false; l_true ])
          (List.init n Fun.id)
      in
      List.fold_left
        (fun best l -> if Lattice.area l < Lattice.area best then l else best)
        (List.hd lattices) (List.tl lattices)

let synthesize_with ~var ~pol f =
  match L.Boolfunc.is_const f with
  | Some b -> Compose.of_const (L.Boolfunc.n_vars f) b
  | None ->
      let l_false, l_true =
        polarity_pair
          ~synth:(synth_component ~depth:(-1))
          ~var f
      in
      if pol then l_true else l_false

let synthesize f = synthesize_at ~depth:0 f

let synthesize_recursive ?(depth = 2) f = synthesize_at ~depth f
