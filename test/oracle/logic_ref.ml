(* Two-level logic references: the duality sharing lemma and the
   pre-bucketing Quine–McCluskey prime generation. *)

open Nxc_logic

(** The duality sharing lemma (Altun–Riedel, IEEE TC 2012): every cube
    of the first cover shares a same-polarity literal with every cube
    of the second.  Holds whenever the covers denote a function and its
    dual, unless one side is constant. *)
let check_sharing f_cover d_cover =
  List.for_all
    (fun p ->
      List.for_all (fun q -> Cube.shares_literal p q) (Cover.cubes d_cover))
    (Cover.cubes f_cover)

(** Prime implicants of [on ∪ dc] by merging every [i < j] cube pair in
    each round, sorted by [Cube.compare]. *)
let primes_reference ~n ~on ~dc =
  let care = List.sort_uniq compare (on @ dc) in
  let current = ref (List.map (Cube.of_minterm n) care) in
  let prime_acc = ref [] in
  while !current <> [] do
    let merged = Hashtbl.create 64 in
    let next = Hashtbl.create 64 in
    let arr = Array.of_list !current in
    let k = Array.length arr in
    for i = 0 to k - 1 do
      for j = i + 1 to k - 1 do
        match Cube.merge arr.(i) arr.(j) with
        | Some m ->
            Hashtbl.replace next m ();
            Hashtbl.replace merged (Cube.hash arr.(i), arr.(i)) ();
            Hashtbl.replace merged (Cube.hash arr.(j), arr.(j)) ()
        | None -> ()
      done
    done;
    Array.iter
      (fun c ->
        if not (Hashtbl.mem merged (Cube.hash c, c)) then
          prime_acc := c :: !prime_acc)
      arr;
    current := Hashtbl.fold (fun c () acc -> c :: acc) next []
  done;
  List.sort_uniq Cube.compare !prime_acc
