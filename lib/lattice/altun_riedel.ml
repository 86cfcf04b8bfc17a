module L = Nxc_logic
module Cube = L.Cube
module Cover = L.Cover
module Obs = Nxc_obs

let m_syntheses = Obs.Metrics.counter "lattice.ar_syntheses"

let constant_lattice n b =
  Lattice.make ~n_vars:n [| [| (if b then Lattice.One else Lattice.Zero) |] |]

let synthesize_from_covers ~n ~f_cover ~dual_cover =
  let ps = Array.of_list (Cover.cubes f_cover) in
  let qs = Array.of_list (Cover.cubes dual_cover) in
  if Array.length ps = 0 || Array.length qs = 0 then
    invalid_arg "Altun_riedel.synthesize_from_covers: degenerate cover";
  if Array.exists Cube.is_top ps || Array.exists Cube.is_top qs then
    invalid_arg "Altun_riedel.synthesize_from_covers: constant function";
  Obs.Metrics.incr m_syntheses;
  let sites =
    Array.map
      (fun q ->
        Array.map
          (fun p ->
            match Cube.common_literals p q with
            | (v, pol) :: _ -> Lattice.Lit (v, pol)
            | [] ->
                invalid_arg
                  "Altun_riedel: products share no literal (covers are not \
                   a function/dual pair)")
          ps)
      qs
  in
  Lattice.make ~n_vars:n sites

let synthesize f =
  Obs.Span.with_ ~name:"lattice.altun_riedel" @@ fun () ->
  let n = L.Boolfunc.n_vars f in
  match L.Boolfunc.is_const f with
  | Some b ->
      Obs.Metrics.incr m_syntheses;
      constant_lattice (max n 1) b
  | None ->
      let f_cover = L.Minimize.sop f in
      let dual_cover = L.Minimize.dual_sop f in
      synthesize_from_covers ~n ~f_cover ~dual_cover

let size_formula f =
  match L.Boolfunc.is_const f with
  | Some _ -> (1, 1)
  | None ->
      let c = Cover.num_cubes (L.Minimize.sop f) in
      let r = Cover.num_cubes (L.Minimize.dual_sop f) in
      (r, c)

let paper_example () =
  let f =
    L.Parse.expr ~n:6 "x1x2x3 + x1x2x5x6 + x2x3x4x5 + x4x5x6"
  in
  let lit v = Lattice.Lit (v, Cube.Pos) in
  let lattice =
    Lattice.make ~n_vars:6
      [| [| lit 0; lit 3 |]; [| lit 1; lit 4 |]; [| lit 2; lit 5 |] |]
  in
  (L.Boolfunc.with_name "fig4" f, lattice)
