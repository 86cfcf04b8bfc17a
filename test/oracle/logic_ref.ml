(* Two-level logic references: the duality sharing lemma, the
   pre-bucketing Quine–McCluskey prime generation and the list-based
   branch-and-bound cover. *)

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

(** Branch and bound over the covering problem with the uncovered
    minterms as a list, filtered at every node: the same search as
    [Qm.cover_exact] (first uncovered minterm in [on_list] order,
    covering primes in index order, one guard step per node within
    [budget] nodes), returning [(best, exact, nodes)]. *)
let cover_exact ~guard ~budget primes_arr on_list =
  let nodes = ref 0 in
  let best = ref None in
  let best_size = ref max_int in
  let n_primes = Array.length primes_arr in
  let covering = Hashtbl.create 64 in
  List.iter
    (fun m ->
      let who = ref [] in
      for i = n_primes - 1 downto 0 do
        if Cube.eval_int primes_arr.(i) m then who := i :: !who
      done;
      Hashtbl.replace covering m !who)
    on_list;
  let exception Budget in
  let rec go chosen n_chosen uncovered =
    incr nodes;
    if !nodes > budget || not (Nxc_guard.Budget.step guard) then raise Budget;
    match uncovered with
    | [] ->
        if n_chosen < !best_size then begin
          best_size := n_chosen;
          best := Some chosen
        end
    | m :: _ ->
        if n_chosen + 1 >= !best_size then ()
        else
          List.iter
            (fun i ->
              let uncovered' =
                List.filter
                  (fun m' -> not (Cube.eval_int primes_arr.(i) m'))
                  uncovered
              in
              go (i :: chosen) (n_chosen + 1) uncovered')
            (Hashtbl.find covering m)
  in
  let exact = match go [] 0 on_list with () -> true | exception Budget -> false in
  (!best, exact, !nodes)
