module L = Nxc_logic
module Cube = L.Cube
module Cover = L.Cover

type t = {
  n : int;
  pullup : Cube.t array;   (* products of f *)
  pulldown : Cube.t array; (* products of f^D *)
  rows : (int * Cube.polarity) array;
  placement : Model.placement;
}

let flip (p : Cube.polarity) : Cube.polarity =
  match p with Pos -> Neg | Neg -> Pos

let of_covers ~n ~f_cover ~dual_cover =
  let ups = Cover.cubes f_cover and downs = Cover.cubes dual_cover in
  if ups = [] || downs = [] then
    invalid_arg "Fet.of_covers: degenerate cover";
  if List.exists Cube.is_top ups || List.exists Cube.is_top downs then
    invalid_arg "Fet.of_covers: constant function";
  (* gate lines: literals of f plus complements of literals of f^D (the
     paper's formula counts the former; they coincide on its example) *)
  let wanted = Hashtbl.create 16 in
  List.iter
    (fun cube -> List.iter (fun l -> Hashtbl.replace wanted l ()) (Cube.literals cube))
    ups;
  List.iter
    (fun cube ->
      List.iter
        (fun (v, p) -> Hashtbl.replace wanted (v, flip p) ())
        (Cube.literals cube))
    downs;
  let rows =
    Hashtbl.fold (fun l () acc -> l :: acc) wanted [] |> List.sort compare
    |> Array.of_list
  in
  let row_of = Hashtbl.create 16 in
  Array.iteri (fun r l -> Hashtbl.replace row_of l r) rows;
  let pullup = Array.of_list ups and pulldown = Array.of_list downs in
  let cols = Array.length pullup + Array.length pulldown in
  let matrix = Array.make_matrix (Array.length rows) cols false in
  Array.iteri
    (fun c cube ->
      List.iter
        (fun l -> matrix.(Hashtbl.find row_of l).(c) <- true)
        (Cube.literals cube))
    pullup;
  Array.iteri
    (fun j cube ->
      let c = Array.length pullup + j in
      List.iter
        (fun (v, p) -> matrix.(Hashtbl.find row_of (v, flip p)).(c) <- true)
        (Cube.literals cube))
    pulldown;
  { n; pullup; pulldown; rows;
    placement = Model.placement_of_matrix matrix }

let synthesize f =
  match L.Boolfunc.is_const f with
  | Some _ -> invalid_arg "Fet.synthesize: constant function"
  | None ->
      of_covers ~n:(L.Boolfunc.n_vars f)
        ~f_cover:(L.Minimize.sop f)
        ~dual_cover:(L.Minimize.dual_sop f)

let dims x = x.placement.Model.dims

(* Gate lines: distinct literals of f plus the complements of the dual
   cover's literals.  On the paper's example (and whenever f's literal
   set is closed under the dual's complements) this is exactly the
   paper's "number of literals in f". *)
let size_formula f =
  let fc = L.Minimize.sop f in
  let dc = L.Minimize.dual_sop f in
  let lits =
    Cover.distinct_literals fc
    @ List.map (fun (v, p) -> (v, flip p)) (Cover.distinct_literals dc)
    |> List.sort_uniq compare
  in
  { Model.rows = List.length lits;
    cols = Cover.num_cubes fc + Cover.num_cubes dc }

let placement x = x.placement
let num_pullup x = Array.length x.pullup
let num_pulldown x = Array.length x.pulldown

let pullup_conducts x m =
  Array.exists (fun p -> Cube.eval_int p m) x.pullup

let pulldown_conducts x m =
  (* a pull-down chain conducts when every literal of its dual product
     is false *)
  Array.exists
    (fun q -> List.for_all (fun (v, p) ->
         let bit = m land (1 lsl v) <> 0 in
         (match (p : Cube.polarity) with Pos -> not bit | Neg -> bit))
         (Cube.literals q))
    x.pulldown

let eval_int x m =
  let up = pullup_conducts x m and down = pulldown_conducts x m in
  assert (up <> down);
  up

let pp ppf x =
  let { Model.rows; cols } = dims x in
  Format.fprintf ppf "fet crossbar %dx%d (%d pull-up + %d pull-down)@\n" rows
    cols (num_pullup x) (num_pulldown x);
  Array.iteri
    (fun r (v, p) ->
      Format.fprintf ppf "x%d%s | " (v + 1)
        (match (p : Cube.polarity) with Pos -> " " | Neg -> "'");
      for c = 0 to cols - 1 do
        Format.fprintf ppf "%s "
          (if x.placement.Model.connected.(r).(c) then
             if c < num_pullup x then "U" else "N"
           else ".")
      done;
      Format.pp_print_newline ppf ())
    x.rows
