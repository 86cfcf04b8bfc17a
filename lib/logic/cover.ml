type t = { n : int; cubes : Cube.t list }

let dedup cubes = List.sort_uniq Cube.compare cubes

let make n cubes =
  List.iter
    (fun c ->
      if Cube.n_vars c <> n then invalid_arg "Cover.make: arity mismatch")
    cubes;
  { n; cubes = dedup cubes }

let n_vars f = f.n
let cubes f = f.cubes
let num_cubes f = List.length f.cubes

let distinct_literals f =
  List.concat_map Cube.literals f.cubes |> List.sort_uniq compare

let bottom n = { n; cubes = [] }
let top n = { n; cubes = [ Cube.top n ] }

let eval_int f m = List.exists (fun c -> Cube.eval_int c m) f.cubes

let union f g =
  if f.n <> g.n then invalid_arg "Cover.union: arity mismatch";
  { n = f.n; cubes = dedup (f.cubes @ g.cubes) }

let cofactor f v p =
  { f with cubes = dedup (List.filter_map (fun c -> Cube.cofactor c v p) f.cubes) }

let cube_cofactor f c =
  List.fold_left (fun f (v, p) -> cofactor f v p) f (Cube.literals c)

(* Tautology via unate reduction and Shannon recursion.  A cover is
   unate in a variable when the variable appears with a single polarity;
   such columns can be deleted unless some cube becomes the universal
   cube.  Splitting picks the most frequently constrained binate
   variable. *)
let rec is_tautology f =
  if List.exists Cube.is_top f.cubes then true
  else if f.cubes = [] then false
  else
    let pos = Array.make f.n 0 and neg = Array.make f.n 0 in
    List.iter
      (fun c ->
        List.iter
          (fun (v, p) ->
            match (p : Cube.polarity) with
            | Pos -> pos.(v) <- pos.(v) + 1
            | Neg -> neg.(v) <- neg.(v) + 1)
          (Cube.literals c))
      f.cubes;
    (* a variable constrained in every remaining check to one polarity
       only cannot contribute to a tautology through its cubes: cubes
       with a unate literal can be dropped only when the rest already
       covers; the sound classical reduction is: if some variable is
       unate, the cover is a tautology iff the cofactor that deletes the
       unate literal's cubes is a tautology. *)
    let rec find_unate v =
      if v >= f.n then None
      else if pos.(v) > 0 && neg.(v) = 0 then Some (v, Cube.Neg)
      else if neg.(v) > 0 && pos.(v) = 0 then Some (v, Cube.Pos)
      else find_unate (v + 1)
    in
    match find_unate 0 with
    | Some (v, p) ->
        (* cofactor against the polarity absent from the cover: removes
           every cube containing the unate literal *)
        is_tautology (cofactor f v p)
    | None ->
        (* pick most binate variable *)
        let best = ref (-1) and score = ref (-1) in
        for v = 0 to f.n - 1 do
          let s = min pos.(v) neg.(v) in
          if s > !score then begin
            score := s;
            best := v
          end
        done;
        let v = !best in
        if v < 0 then false
        else is_tautology (cofactor f v Pos) && is_tautology (cofactor f v Neg)

let covers_cube f c =
  if Cube.n_vars c <> f.n then invalid_arg "Cover.covers_cube";
  is_tautology (cube_cofactor f c)

let covers f g =
  if f.n <> g.n then invalid_arg "Cover.covers";
  List.for_all (covers_cube f) g.cubes

let equivalent f g = covers f g && covers g f

let single_cube_containment f =
  let keep c =
    not
      (List.exists
         (fun d -> (not (Cube.equal c d)) && Cube.contains d c)
         f.cubes)
  in
  { f with cubes = List.filter keep f.cubes }

(* Complement by the unate-recursive paradigm: split on a binate
   variable, complement cofactors, reattach literals. *)
let rec complement f =
  if List.exists Cube.is_top f.cubes then bottom f.n
  else if f.cubes = [] then top f.n
  else
    match f.cubes with
    | [ c ] ->
        (* De Morgan on a single cube *)
        let lits = Cube.literals c in
        let flip (p : Cube.polarity) : Cube.polarity =
          match p with Pos -> Neg | Neg -> Pos
        in
        { n = f.n;
          cubes = List.map (fun (v, p) -> Cube.literal f.n v (flip p)) lits }
    | _ ->
        let pos = Array.make f.n 0 and neg = Array.make f.n 0 in
        List.iter
          (fun c ->
            List.iter
              (fun (v, p) ->
                match (p : Cube.polarity) with
                | Pos -> pos.(v) <- pos.(v) + 1
                | Neg -> neg.(v) <- neg.(v) + 1)
              (Cube.literals c))
          f.cubes;
        let best = ref 0 and score = ref (-1) in
        for v = 0 to f.n - 1 do
          let s = (min pos.(v) neg.(v) * 1000) + pos.(v) + neg.(v) in
          if s > !score then begin
            score := s;
            best := v
          end
        done;
        let v = !best in
        let c1 = complement (cofactor f v Pos)
        and c0 = complement (cofactor f v Neg) in
        let attach p g =
          { n = f.n;
            cubes =
              List.filter_map
                (fun c -> Cube.intersect (Cube.literal f.n v p) c)
                g.cubes }
        in
        single_cube_containment (union (attach Pos c1) (attach Neg c0))

let pp ppf f =
  if f.cubes = [] then Format.pp_print_char ppf '0'
  else
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.fprintf ppf " + ")
      Cube.pp ppf f.cubes

let to_string f = Format.asprintf "%a" pp f
