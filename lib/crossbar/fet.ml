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
let row_literals x = x.rows

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

let is_complementary x =
  let rec go m =
    m >= 1 lsl x.n
    || (pullup_conducts x m <> pulldown_conducts x m && go (m + 1))
  in
  go 0

let eval_int x m =
  let up = pullup_conducts x m and down = pulldown_conducts x m in
  assert (up <> down);
  up

let eval x a =
  let m = ref 0 in
  Array.iteri (fun i b -> if b then m := !m lor (1 lsl i)) a;
  eval_int x !m

(* ------------------------------------------------------------------ *)
(* Word-parallel batch evaluation (Bitslice layout: one assignment or  *)
(* caller vector per bit).  Per word: materialize each gate line's     *)
(* conduction word once, then every column chain wired-ANDs its        *)
(* programmed gates; pull-up chains OR into the output word, pull-down *)
(* chains into its complement, and complementarity is asserted word-   *)
(* wise — the batched form of [eval_int]'s per-assignment assert.      *)
(* ------------------------------------------------------------------ *)

module Bitslice = L.Bitslice
module Truth_table = L.Truth_table
module Bitvec = L.Bitvec

let eval_words x ~len ~nw ~var_word ~gates ~out =
  Model.count_kernel_call ();
  let { Model.rows; cols } = x.placement.Model.dims in
  let connected = x.placement.Model.connected in
  let nup = Array.length x.pullup in
  let ops = ref 0 in
  for w = 0 to nw - 1 do
    let tail = if w = nw - 1 then Bitslice.tail_mask len else -1 in
    for r = 0 to rows - 1 do
      let v, p = x.rows.(r) in
      let xw = var_word v w in
      gates.(r) <-
        (match (p : Cube.polarity) with
        | Pos -> xw
        | Neg -> lnot xw land tail);
      incr ops
    done;
    let up = ref 0 and down = ref 0 in
    for c = 0 to cols - 1 do
      let chain = ref tail in
      for r = 0 to rows - 1 do
        if connected.(r).(c) then begin
          chain := !chain land gates.(r);
          incr ops
        end
      done;
      if c < nup then up := !up lor !chain else down := !down lor !chain
    done;
    (* exactly one network conducts per assignment *)
    assert (!up lxor !down = tail);
    out.(w) <- !up
  done;
  Model.count_word_ops !ops

let eval_all ?scratch x =
  let s = match scratch with Some s -> s | None -> Model.domain_scratch () in
  let len = 1 lsl x.n in
  let nw = Bitslice.words_for len in
  let pats = Model.scratch_pats s ~n_vars:x.n ~len in
  let gates = Model.scratch_line s x.placement.Model.dims.Model.rows in
  let out = Model.scratch_out s nw in
  eval_words x ~len ~nw ~var_word:(fun v w -> pats.(v).(w)) ~gates ~out;
  Truth_table.of_bitvec x.n (Bitvec.of_words len (Array.sub out 0 nw))

let eval_vectors x vectors =
  let s = Model.domain_scratch () in
  let count = Array.length vectors in
  let nw = Bitslice.words_for count in
  let vw = Array.make_matrix (max x.n 1) (max nw 1) 0 in
  Array.iteri
    (fun j vec ->
      if Array.length vec <> x.n then
        invalid_arg "Fet.eval_vectors: vector arity";
      let w = j / Bitslice.word_bits and b = j mod Bitslice.word_bits in
      Array.iteri
        (fun v bit -> if bit then vw.(v).(w) <- vw.(v).(w) lor (1 lsl b))
        vec)
    vectors;
  let gates = Model.scratch_line s x.placement.Model.dims.Model.rows in
  let out = Model.scratch_out s nw in
  eval_words x ~len:count ~nw ~var_word:(fun v w -> vw.(v).(w)) ~gates ~out;
  Bitvec.of_words count (Array.sub out 0 nw)

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
