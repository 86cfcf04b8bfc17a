let parity m =
  let rec go acc m = if m = 0 then acc else go (acc lxor (m land 1)) (m lsr 1) in
  go 0 m = 1

let lowest_bit m = m land -m

let bit_index m =
  (* index of the single set bit of [m] *)
  let rec go i m = if m land 1 <> 0 then i else go (i + 1) (m lsr 1) in
  go 0 m

(* Reduced row echelon form of a list of GF(2) row vectors (masks),
   optionally paired with a right-hand side bit.  Pivots are the lowest
   set bit of each row; each pivot appears in exactly one row. *)
let rref rows =
  let reduced = ref [] in
  List.iter
    (fun (m0, b0) ->
      let m = ref m0 and b = ref b0 in
      List.iter
        (fun (pm, (rm, rb)) ->
          if !m land pm <> 0 then begin
            m := !m lxor rm;
            b := !b <> rb
          end)
        !reduced;
      if !m <> 0 then begin
        let pm = lowest_bit !m in
        (* eliminate the new pivot from existing rows *)
        reduced :=
          List.map
            (fun (pm', (rm, rb)) ->
              if rm land pm <> 0 then (pm', (rm lxor !m, rb <> !b))
              else (pm', (rm, rb)))
            !reduced;
        reduced := (pm, (!m, !b)) :: !reduced
      end)
    rows;
  List.sort compare !reduced

type space = {
  n : int;
  constraints : (int * bool) list;
  pivot_vars : int list;
  free_vars : int list;
}

let dimension s = List.length s.free_vars

let mem s x =
  List.for_all (fun (mask, rhs) -> parity (x land mask) = rhs) s.constraints

let space_of_constraints n rows =
  let reduced = rref rows in
  let pivot_vars = List.map (fun (pm, _) -> bit_index pm) reduced in
  let pivot_set = List.fold_left (fun acc v -> acc lor (1 lsl v)) 0 pivot_vars in
  let free_vars =
    List.filter (fun v -> pivot_set land (1 lsl v) = 0) (List.init n Fun.id)
  in
  { n;
    constraints = List.map snd reduced;
    pivot_vars;
    free_vars }

(* Solve for the unique point with the given free-variable assignment.
   In RREF each constraint's pivot variable occurs in no other
   constraint, so pivots are determined independently. *)
let solve s free_assignment =
  let x = ref 0 in
  List.iteri
    (fun i v ->
      if free_assignment land (1 lsl i) <> 0 then x := !x lor (1 lsl v))
    s.free_vars;
  List.iter2
    (fun pv (mask, rhs) ->
      let others = mask land lnot (1 lsl pv) in
      let value = rhs <> parity (!x land others) in
      if value then x := !x lor (1 lsl pv))
    s.pivot_vars s.constraints;
  !x

let affine_hull ~n pts =
  match pts with
  | [] -> invalid_arg "Affine.affine_hull: empty point set"
  | p0 :: rest ->
      (* basis of the direction space, kept in reduced echelon form *)
      let basis = ref [] in
      List.iter
        (fun p ->
          let v =
            List.fold_left
              (fun v b -> if v land lowest_bit b <> 0 then v lxor b else v)
              (p lxor p0) !basis
          in
          if v <> 0 then
            basis :=
              List.map
                (fun (_, (m, _)) -> m)
                (rref (List.map (fun b -> (b, false)) (v :: !basis))))
        rest;
      (* orthogonal complement: masks m with parity(m AND bi) = 0 for
         all i.  Solve with the direction basis as rows in RREF. *)
      let rows = rref (List.map (fun m -> (m, false)) !basis) in
      let pivot_cols = List.map (fun (pm, _) -> bit_index pm) rows in
      let pivot_set =
        List.fold_left (fun acc v -> acc lor (1 lsl v)) 0 pivot_cols
      in
      let checks = ref [] in
      for j = 0 to n - 1 do
        if pivot_set land (1 lsl j) = 0 then begin
          (* null vector: 1 at column j plus the column-j coefficients
             at pivot positions *)
          let m = ref (1 lsl j) in
          List.iter
            (fun (pm, (rm, _)) ->
              if rm land (1 lsl j) <> 0 then m := !m lor pm)
            rows;
          checks := (!m, parity (!m land p0)) :: !checks
        end
      done;
      space_of_constraints n !checks

let chi s = Truth_table.of_fun_int s.n (mem s)

let constraint_function n (mask, rhs) =
  Truth_table.of_fun_int n (fun x -> parity (x land mask) = rhs)

type reduction = { space : space; projection : Truth_table.t }

let d_reduction f =
  let tt = Boolfunc.table f in
  let n = Truth_table.n_vars tt in
  match Truth_table.minterms tt with
  | [] -> None
  | pts ->
      let s = affine_hull ~n pts in
      if dimension s >= n then None
      else
        let k = dimension s in
        let projection =
          Truth_table.of_fun_int k (fun fa ->
              Truth_table.eval_int tt (solve s fa))
        in
        Some { space = s; projection }

let reconstruct ~n r =
  let map = Array.of_list r.space.free_vars in
  let lifted = Truth_table.lift r.projection n map in
  Truth_table.band (chi r.space) lifted
