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
let row_value x m r =
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
    if x.placement.Model.connected.(r).(cols - 1) && row_value x m r then
      result := true
  done;
  !result

let eval x a =
  let m = ref 0 in
  Array.iteri (fun i b -> if b then m := !m lor (1 lsl i)) a;
  eval_int x !m

(* ------------------------------------------------------------------ *)
(* Word-parallel batch evaluation.                                     *)
(*                                                                     *)
(* One assignment (or caller-supplied vector) per bit, packed into     *)
(* native-int words (the Bitslice layout).  Per word: materialize each *)
(* literal column's word once, then every observed row wired-ANDs its  *)
(* programmed columns and the output wired-ORs the rows — up to        *)
(* word_bits scalar evaluations per word pass.                         *)
(* ------------------------------------------------------------------ *)

module Bitslice = L.Bitslice
module Truth_table = L.Truth_table
module Bitvec = L.Bitvec

let eval_words x ~len ~nw ~var_word ~line ~out =
  Model.count_kernel_call ();
  let { Model.rows; cols } = x.placement.Model.dims in
  let connected = x.placement.Model.connected in
  let ops = ref 0 in
  for w = 0 to nw - 1 do
    let tail = if w = nw - 1 then Bitslice.tail_mask len else -1 in
    for c = 0 to cols - 2 do
      let v, p = x.literals.(c) in
      let xw = var_word v w in
      line.(c) <-
        (match (p : Cube.polarity) with
        | Pos -> xw
        | Neg -> lnot xw land tail);
      incr ops
    done;
    let acc = ref 0 in
    for r = 0 to rows - 1 do
      (* wired-OR only collects rows with an output diode *)
      if connected.(r).(cols - 1) then begin
        (* wired-AND of the row's programmed literal columns; an empty
           row floats high through its pull-up, hence the [tail] seed *)
        let row = ref tail in
        for c = 0 to cols - 2 do
          if connected.(r).(c) then begin
            row := !row land line.(c);
            incr ops
          end
        done;
        acc := !acc lor !row
      end
    done;
    out.(w) <- !acc
  done;
  Model.count_word_ops !ops

let eval_all ?scratch x =
  let s = match scratch with Some s -> s | None -> Model.domain_scratch () in
  let len = 1 lsl x.n in
  let nw = Bitslice.words_for len in
  let pats = Model.scratch_pats s ~n_vars:x.n ~len in
  let line = Model.scratch_line s x.placement.Model.dims.Model.cols in
  let out = Model.scratch_out s nw in
  eval_words x ~len ~nw ~var_word:(fun v w -> pats.(v).(w)) ~line ~out;
  Truth_table.of_bitvec x.n (Bitvec.of_words len (Array.sub out 0 nw))

let eval_vectors x vectors =
  let s = Model.domain_scratch () in
  let count = Array.length vectors in
  let nw = Bitslice.words_for count in
  let vw = Array.make_matrix (max x.n 1) (max nw 1) 0 in
  Array.iteri
    (fun j vec ->
      if Array.length vec <> x.n then
        invalid_arg "Diode.eval_vectors: vector arity";
      let w = j / Bitslice.word_bits and b = j mod Bitslice.word_bits in
      Array.iteri
        (fun v bit -> if bit then vw.(v).(w) <- vw.(v).(w) lor (1 lsl b))
        vec)
    vectors;
  let line = Model.scratch_line s x.placement.Model.dims.Model.cols in
  let out = Model.scratch_out s nw in
  eval_words x ~len:count ~nw ~var_word:(fun v w -> vw.(v).(w)) ~line ~out;
  Bitvec.of_words count (Array.sub out 0 nw)

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
