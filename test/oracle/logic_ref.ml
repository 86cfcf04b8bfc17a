(* Two-level logic references: the duality sharing lemma, the
   pre-bucketing Quine–McCluskey prime generation, the list-based
   branch-and-bound cover, and the small checkers and writers the logic
   tests and the bench build on. *)

open Nxc_logic

(** The cube of exactly minterm [m] over [n] variables. *)
let of_minterm n m =
  Cube.of_literals n
    (List.init n (fun v -> (v, if m land (1 lsl v) <> 0 then Cube.Pos else Cube.Neg)))

(** Quine–McCluskey combination: defined when the cubes constrain the
    same variable set and differ in exactly one polarity. *)
let merge a b =
  let la = Cube.literals a and lb = Cube.literals b in
  if List.map fst la <> List.map fst lb then None
  else
    match List.filter (fun (l, l') -> l <> l') (List.combine la lb) with
    | [ ((v, _), _) ] ->
        Some (Cube.of_literals (Cube.n_vars a) (List.filter (fun (u, _) -> u <> v) la))
    | _ -> None

(** The duality sharing lemma (Altun–Riedel, IEEE TC 2012): every cube
    of the first cover shares a same-polarity literal with every cube
    of the second.  Holds whenever the covers denote a function and its
    dual, unless one side is constant. *)
let check_sharing f_cover d_cover =
  List.for_all
    (fun p ->
      List.for_all (fun q -> Cube.common_literals p q <> []) (Cover.cubes d_cover))
    (Cover.cubes f_cover)

(** The implicants of [care] level by level: those with 0 free
    variables (the minterms), then 1, ..., each level built by merging
    every [i < j] cube pair of the one before. *)
let implicant_levels ~n care =
  let rec go current acc =
    if current = [] then List.rev acc
    else begin
      let next = Hashtbl.create 64 in
      let arr = Array.of_list current in
      let k = Array.length arr in
      for i = 0 to k - 1 do
        for j = i + 1 to k - 1 do
          match merge arr.(i) arr.(j) with
          | Some m -> Hashtbl.replace next m ()
          | None -> ()
        done
      done;
      go (Hashtbl.fold (fun c () acc -> c :: acc) next []) (current :: acc)
    end
  in
  go (List.map (of_minterm n) (List.sort_uniq compare care)) []

(** Prime implicants of [on ∪ dc]: the implicants no implicant of the
    next level contains, sorted by [Cube.compare]. *)
let primes_reference ~n ~on ~dc =
  let rec primes = function
    | [] -> []
    | level :: rest ->
        let up = match rest with [] -> [] | u :: _ -> u in
        List.filter (fun c -> not (List.exists (fun u -> Cube.contains u c) up)) level
        @ primes rest
  in
  List.sort_uniq Cube.compare (primes (implicant_levels ~n (on @ dc)))

(** The steps prime generation of the ON-set [on] charges: per level,
    the pairs of implicants whose positive-literal counts differ by
    one, [sum_p |B_p| * |B_(p+1)|]. *)
let prime_pair_steps ~n ~on =
  List.fold_left
    (fun acc level ->
      let b = Array.make (n + 2) 0 in
      List.iter
        (fun c ->
          let p =
            List.length (List.filter (fun (_, pol) -> pol = Cube.Pos) (Cube.literals c))
          in
          b.(p) <- b.(p) + 1)
        level;
      let pairs = ref 0 in
      for p = 0 to n - 1 do
        pairs := !pairs + (b.(p) * b.(p + 1))
      done;
      acc + !pairs)
    0 (implicant_levels ~n on)

(** For each minterm of [on], the indices of the primes covering it,
    ascending: the covering problem both engines of [Qm] solve. *)
let covered_by primes_arr on =
  Array.of_list
    (List.map
       (fun m ->
         List.filter
           (fun i -> Cube.eval_int primes_arr.(i) m)
           (List.init (Array.length primes_arr) Fun.id))
       on)

(** What is wrong with the lower-bound certificate [st] of a [Qm]
    minimization of the ON-set [on] into [cover], checked against
    primes of its own ([primes_reference]); [[]] when it holds.  The
    witness minterms must be ON, none covered by an essential prime,
    no two covered by one prime; then every cover needs the essentials
    plus one prime per witness minterm, and [st.lower_bound] may claim
    no more than that, which [cover] must reach. *)
let certificate_errors ~n ~on cover (st : Qm.stats) =
  let on = List.sort_uniq compare on in
  let primes = primes_reference ~n ~on ~dc:[] in
  let covering m = List.filter (fun p -> Cube.eval_int p m) primes in
  let essentials =
    List.sort_uniq Cube.compare
      (List.filter_map (fun m -> match covering m with [ p ] -> Some p | _ -> None) on)
  in
  let w = st.witness in
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  List.iter
    (fun m ->
      if not (List.mem m on) then err "witness %d is not ON" m;
      if List.exists (fun p -> Cube.eval_int p m) essentials then
        err "witness %d is covered by an essential prime" m)
    w;
  List.iteri
    (fun i a ->
      List.iteri
        (fun j b ->
          if i < j && List.exists (fun p -> Cube.eval_int p b) (covering a) then
            err "witnesses %d and %d share a prime" a b)
        w)
    w;
  let checked = List.length w + List.length essentials in
  let size = Cover.num_cubes cover in
  if st.lower_bound > checked then
    err "lower bound %d exceeds the %d the witness backs" st.lower_bound checked;
  if checked > size then err "cover of %d is below the bound %d" size checked;
  List.rev !errs

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

(* ------------------------------------------------------------------ *)
(* PLA writer                                                          *)
(* ------------------------------------------------------------------ *)

let cube_to_pla_input n c =
  String.init n (fun i ->
      match Cube.polarity_of c i with
      | None -> '-'
      | Some Pos -> '1'
      | Some Neg -> '0')

(* labels land in space-separated .ilb/.ob directives, so whitespace
   inside a name would change the token count and make the emitted text
   unparseable; squash it (function names are often full expressions) *)
let sanitize_label s =
  let s = if s = "" then "_" else s in
  String.map
    (fun ch -> match ch with ' ' | '\t' | '\n' | '\r' -> '_' | c -> c)
    s

(** PLA text of [p], the format [Parse.pla_of_string_result] reads:
    one row per distinct input cube, shared products printed once. *)
let pla_to_string (p : Parse.pla) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf ".i %d\n.o %d\n" p.inputs p.outputs);
  let add_labels directive names =
    Buffer.add_string buf
      (directive ^ " "
      ^ String.concat " " (List.map sanitize_label names)
      ^ "\n")
  in
  (match p.input_labels with
  | Some names -> add_labels ".ilb" names
  | None -> ());
  (match p.output_labels with
  | Some names -> add_labels ".ob" names
  | None -> ());
  (* group rows by input cube so shared products print once *)
  let tbl = Hashtbl.create 64 in
  Array.iteri
    (fun o cover ->
      List.iter
        (fun c ->
          let cur =
            match Hashtbl.find_opt tbl c with
            | Some s -> s
            | None ->
                let s = Bytes.make p.outputs '0' in
                Hashtbl.add tbl c s;
                s
          in
          Bytes.set cur o '1')
        (Cover.cubes cover))
    p.on_sets;
  Array.iteri
    (fun o cover ->
      List.iter
        (fun c ->
          let cur =
            match Hashtbl.find_opt tbl c with
            | Some s -> s
            | None ->
                let s = Bytes.make p.outputs '0' in
                Hashtbl.add tbl c s;
                s
          in
          Bytes.set cur o '-')
        (Cover.cubes cover))
    p.dc_sets;
  let rows =
    Hashtbl.fold
      (fun c out acc -> (cube_to_pla_input p.inputs c, Bytes.to_string out) :: acc)
      tbl []
    |> List.sort compare
  in
  Buffer.add_string buf (Printf.sprintf ".p %d\n" (List.length rows));
  List.iter
    (fun (i, o) -> Buffer.add_string buf (i ^ " " ^ o ^ "\n"))
    rows;
  Buffer.add_string buf ".e\n";
  Buffer.contents buf

(** Exact (minterm-level) PLA of a function vector; all functions must
    share an arity. *)
let pla_of_functions fs : Parse.pla =
  match fs with
  | [] -> invalid_arg "Logic_ref.pla_of_functions: empty"
  | f0 :: _ ->
      let n = Boolfunc.n_vars f0 in
      List.iter
        (fun f ->
          if Boolfunc.n_vars f <> n then
            invalid_arg "Logic_ref.pla_of_functions: arity mismatch")
        fs;
      let covers =
        List.map
          (fun f ->
            Cover.make n
              (List.map (of_minterm n)
                 (Truth_table.minterms (Boolfunc.table f))))
          fs
      in
      { inputs = n;
        outputs = List.length fs;
        input_labels = None;
        output_labels = Some (List.map Boolfunc.name fs);
        on_sets = Array.of_list covers;
        dc_sets = Array.of_list (List.map (fun _ -> Cover.bottom n) fs) }

(* ------------------------------------------------------------------ *)
(* Checkers and generators                                             *)
(* ------------------------------------------------------------------ *)

(** Whether a P-circuit decomposition recomposes to [f]:
    [lit(xi = p) f_eq + lit(xi <> p) f_neq + f_int = f]. *)
let pcircuit_valid f (d : Pcircuit.t) =
  let n = Boolfunc.n_vars f in
  let sel pol =
    Truth_table.of_fun_int n (fun m -> (m land (1 lsl d.var) <> 0) = pol)
  in
  Truth_table.equal
    (Truth_table.bor
       (Truth_table.bor
          (Truth_table.band (sel d.pol) d.f_eq)
          (Truth_table.band (sel (not d.pol)) d.f_neq))
       d.f_int)
    (Boolfunc.table f)

(** The points of an affine space over [n] variables, ascending. *)
let affine_points ~n s = List.filter (Affine.mem s) (List.init (1 lsl n) Fun.id)

(* splitmix64-style mixing for deterministic random tables *)
let mix seed i =
  let golden = 0x1E3779B97F4A7C15 in
  let m1 = 0x3F58476D1CE4E5B9 and m2 = 0x14D049BB133111EB in
  let z = ref (seed + ((i + 1) * golden)) in
  z := (!z lxor (!z lsr 30)) * m1;
  z := (!z lxor (!z lsr 27)) * m2;
  !z lxor (!z lsr 31)

(** Deterministic pseudo-random function of [n] variables: bit 0 of the
    mixed minterm index, the bit [Truth_table.random_with_density] does
    not use. *)
let random_table n ~seed = Truth_table.of_fun_int n (fun m -> mix seed m land 1 = 1)
