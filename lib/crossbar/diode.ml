module L = Nxc_logic
module Cube = L.Cube
module Cover = L.Cover

type t = {
  n : int;
  cover : Cover.t;
  literals : (int * Cube.polarity) array;
  placement : Model.placement;
}

let of_cover cover =
  let n = Cover.n_vars cover in
  let cubes = Cover.cubes cover in
  if cubes = [] then invalid_arg "Diode.of_cover: empty cover (constant 0)";
  if List.exists Cube.is_top cubes then
    invalid_arg "Diode.of_cover: universal cube (constant 1)";
  let literals = Array.of_list (Cover.distinct_literals cover) in
  let col_of = Hashtbl.create 16 in
  Array.iteri (fun c l -> Hashtbl.replace col_of l c) literals;
  let rows = List.length cubes in
  let cols = Array.length literals + 1 in
  let matrix = Array.make_matrix rows cols false in
  List.iteri
    (fun r cube ->
      List.iter
        (fun l -> matrix.(r).(Hashtbl.find col_of l) <- true)
        (Cube.literals cube);
      matrix.(r).(cols - 1) <- true)
    cubes;
  { n; cover; literals; placement = Model.placement_of_matrix matrix }

let synthesize f =
  match L.Boolfunc.is_const f with
  | Some _ -> invalid_arg "Diode.synthesize: constant function"
  | None -> of_cover (L.Minimize.sop f)

let dims x = x.placement.Model.dims

let size_formula f =
  let c = L.Minimize.sop f in
  { Model.rows = Cover.num_cubes c;
    cols = List.length (Cover.distinct_literals c) + 1 }

let placement x = x.placement
let cover x = x.cover
let literal_columns x = x.literals

let literal_true (v, p) m =
  match (p : Cube.polarity) with
  | Pos -> m land (1 lsl v) <> 0
  | Neg -> m land (1 lsl v) = 0

(* wired-AND: the row is high iff every programmed literal column is
   high (a diode to a low column pulls the row down) *)
let row_high x m r =
  let cols = x.placement.Model.dims.Model.cols in
  let ok = ref true in
  for c = 0 to cols - 2 do
    if x.placement.Model.connected.(r).(c) && not (literal_true x.literals.(c) m)
    then ok := false
  done;
  !ok

(* wired-OR on the output column over rows with an output diode *)
let eval_int x m =
  let rows = x.placement.Model.dims.Model.rows in
  let cols = x.placement.Model.dims.Model.cols in
  let result = ref false in
  for r = 0 to rows - 1 do
    if x.placement.Model.connected.(r).(cols - 1) && row_high x m r then
      result := true
  done;
  !result

let pp ppf x =
  let { Model.rows; cols } = dims x in
  Format.fprintf ppf "diode crossbar %dx%d (f = %a)@\n" rows cols Cover.pp
    x.cover;
  let header =
    Array.to_list
      (Array.map
         (fun (v, p) ->
           Printf.sprintf "x%d%s" (v + 1)
             (match (p : Cube.polarity) with Pos -> "" | Neg -> "'"))
         x.literals)
    @ [ "out" ]
  in
  Format.fprintf ppf "      %s@\n" (String.concat " " header);
  for r = 0 to rows - 1 do
    Format.fprintf ppf "P%-2d | " (r + 1);
    for c = 0 to cols - 1 do
      Format.fprintf ppf "%s "
        (if x.placement.Model.connected.(r).(c) then "D" else ".")
    done;
    Format.pp_print_newline ppf ()
  done
