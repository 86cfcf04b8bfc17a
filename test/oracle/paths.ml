(* Conduction-path semantics of a lattice.

   A lattice computes the OR over its top-to-bottom paths of the AND of
   the path's literals (Fig. 4).  This module makes that reading
   executable: it enumerates the simple top-to-bottom paths, turns each
   into a product cube, and rebuilds the SOP the lattice implements.
   It is a second semantics, independent of the connectivity
   evaluators in [Lattice], that the tests check them against. *)

open Nxc_logic
module Lattice = Nxc_lattice.Lattice

(** Products of the simple top-to-bottom paths, single-cube-irredundant
    (absorbed paths dropped).  Paths through a constant-0 site or
    carrying contradictory literals are dropped; constant-1 sites
    contribute no literal.  Stops with [Failure] after [max_paths]
    simple paths (default 100_000) to bound the exponential worst
    case. *)
let path_products ?(max_paths = 100_000) lattice =
  let n = Lattice.n_vars lattice in
  let rows = Lattice.rows lattice and cols = Lattice.cols lattice in
  let counted = ref 0 in
  let products = ref [] in
  let visited = Array.make_matrix rows cols false in
  let site_cube r c =
    match Lattice.site lattice r c with
    | Lattice.Zero -> None
    | Lattice.One -> Some (Cube.top n)
    | Lattice.Lit (v, p) -> Some (Cube.literal n v p)
  in
  let rec dfs r c product =
    match site_cube r c with
    | None -> ()
    | Some here -> (
        match Cube.intersect product here with
        | None -> () (* contradictory literals along this path *)
        | Some product ->
            if r = rows - 1 then begin
              incr counted;
              if !counted > max_paths then
                failwith "Paths.path_products: too many paths";
              products := product :: !products
            end
            else begin
              visited.(r).(c) <- true;
              List.iter
                (fun (r', c') ->
                  if
                    r' >= 0 && r' < rows && c' >= 0 && c' < cols
                    && not visited.(r').(c')
                  then dfs r' c' product)
                [ (r + 1, c); (r - 1, c); (r, c - 1); (r, c + 1) ];
              visited.(r).(c) <- false
            end)
  in
  for c = 0 to cols - 1 do
    dfs 0 c (Cube.top n)
  done;
  Cover.cubes
    (Cover.single_cube_containment (Cover.make n !products))

(** The SOP the lattice implements, by path enumeration. *)
let to_cover ?max_paths lattice =
  Cover.make (Lattice.n_vars lattice) (path_products ?max_paths lattice)

(** Path semantics equals connectivity semantics on every assignment. *)
let consistent ?max_paths lattice =
  let cover = to_cover ?max_paths lattice in
  let n = Lattice.n_vars lattice in
  let rec go m =
    m >= 1 lsl n
    || (Cover.eval_int cover m = Lattice.eval_int lattice m && go (m + 1))
  in
  go 0
