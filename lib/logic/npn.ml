(* NPN canonicalization: exhaustive transform search on packed keys for
   small arities, output-phase-only ("semi") fallback above the limit or
   when the budget runs out. *)

module Tt = Truth_table
module Budget = Nxc_guard.Budget

type transform = {
  perm : int array;
  input_neg : bool array;
  output_neg : bool;
}

let m_canon = Nxc_obs.Metrics.counter "npn.canonicalizations"
let m_semi = Nxc_obs.Metrics.counter "npn.semi"

let identity n =
  { perm = Array.init n (fun i -> i); input_neg = Array.make n false;
    output_neg = false }

let apply t f =
  let n = Tt.n_vars f in
  if Array.length t.perm <> n || Array.length t.input_neg <> n then
    invalid_arg "Nxc_logic.Npn.apply: arity mismatch";
  Tt.of_fun_int n (fun m ->
      let m' = ref 0 in
      for i = 0 to n - 1 do
        let bit = (m lsr t.perm.(i)) land 1 in
        let bit = if t.input_neg.(i) then bit lxor 1 else bit in
        m' := !m' lor (bit lsl i)
      done;
      Tt.eval_int f !m' <> t.output_neg)

let exhaustive_limit = 6

(* all permutations of [0 .. n-1], in a fixed deterministic order *)
let permutations n =
  let rec go prefix remaining acc =
    match remaining with
    | [] -> Array.of_list (List.rev prefix) :: acc
    | _ ->
        List.fold_left
          (fun acc x ->
            go (x :: prefix) (List.filter (fun y -> y <> x) remaining) acc)
          acc remaining
  in
  List.rev (go [] (List.init n (fun i -> i)) [])

(* output-phase-only canonical form: cheap, correct, no input unification *)
let semi f =
  let nf = Tt.bnot f in
  if Tt.compare nf f < 0 then
    ({ (identity (Tt.n_vars f)) with output_neg = true }, nf)
  else (identity (Tt.n_vars f), f)

(* The exhaustive search runs on packed keys: a candidate's table is at
   most 64 bits, so minterm [m] goes to bit [31 - m mod 32] of word
   [m / 32] and numeric order on the pair of words is exactly
   [Tt.compare] order (the lowest differing minterm decides, 0 before
   1).  [src.(m)] is the source minterm that candidate minterm [m] reads
   under the current permutation before input negation, so the
   candidate for negation mask [mask] reads [fb.(src.(m) lxor mask)];
   negating the output flips every used bit.  Only the winner is turned
   into a transform record and applied.  [None] when [guard] runs out. *)
let search guard f =
  let n = Tt.n_vars f in
  let size = 1 lsl n in
  let fb = Array.init size (fun m -> Bool.to_int (Tt.eval_int f m)) in
  let src = Array.init size Fun.id in
  (* minterms [lo .. hi] of the candidate for [mask], packed; unchecked
     reads are safe: [src] permutes [0, size) and [mask < size] *)
  let pack lo hi mask =
    let k = ref 0 in
    for m = lo to hi do
      let b = Array.unsafe_get fb (Array.unsafe_get src m lxor mask) in
      k := !k lor (b lsl (31 - (m land 31)))
    done;
    !k
  in
  let used = min size 32 in
  let pack0 = pack 0 (used - 1) and pack1 = pack 32 (size - 1) in
  let full0 = ((1 lsl used) - 1) lsl (32 - used)
  and full1 = if size > 32 then (1 lsl 32) - 1 else 0 in
  let less (a0 : int) (a1 : int) b0 b1 = a0 < b0 || (a0 = b0 && a1 < b1) in
  (* the starting best is the identity on [f] *)
  let best0 = ref (pack0 0) and best1 = ref (pack1 0) in
  let best_perm = ref (Array.init n Fun.id)
  and best_mask = ref 0
  and best_neg = ref false in
  let take perm mask neg k0 k1 =
    best0 := k0;
    best1 := k1;
    best_perm := perm;
    best_mask := mask;
    best_neg := neg
  in
  match
    List.iter
      (fun perm ->
        for m = 0 to size - 1 do
          let s = ref 0 in
          for i = 0 to n - 1 do
            s := !s lor (((m lsr perm.(i)) land 1) lsl i)
          done;
          src.(m) <- !s
        done;
        for mask = 0 to size - 1 do
          if not (Budget.step guard) then raise Exit;
          let k0 = pack0 mask and k1 = pack1 mask in
          (* ties prefer no output negation, so the output phase is a
             property of the NP-subclass, not of which transform the
             enumeration met first *)
          if
            less k0 k1 !best0 !best1
            || (!best_neg && k0 = !best0 && k1 = !best1)
          then take perm mask false k0 k1;
          let k0 = k0 lxor full0 and k1 = k1 lxor full1 in
          if less k0 k1 !best0 !best1 then take perm mask true k0 k1
        done)
      (permutations n)
  with
  | () ->
      Some
        { perm = !best_perm;
          input_neg = Array.init n (fun i -> (!best_mask lsr i) land 1 = 1);
          output_neg = !best_neg }
  | exception Exit -> None

let canonical f =
  Nxc_obs.Metrics.incr m_canon;
  if Tt.n_vars f > exhaustive_limit then begin
    Nxc_obs.Metrics.incr m_semi;
    semi f
  end
  else
    match search (Budget.current ()) f with
    | Some t -> (t, apply t f)
    | None ->
        Budget.degrade "npn_semi";
        Nxc_obs.Metrics.incr m_semi;
        semi f

let table_key f =
  let n = Tt.n_vars f in
  let size = Tt.size f in
  let buf = Buffer.create (8 + ((size + 3) / 4)) in
  Buffer.add_string buf (string_of_int n);
  Buffer.add_char buf ':';
  let nibbles = (size + 3) / 4 in
  for c = 0 to nibbles - 1 do
    let v = ref 0 in
    for b = 0 to 3 do
      let m = (c * 4) + b in
      if m < size && Tt.eval_int f m then v := !v lor (1 lsl b)
    done;
    Buffer.add_char buf "0123456789abcdef".[!v]
  done;
  Buffer.contents buf

let flip = function Cube.Pos -> Cube.Neg | Cube.Neg -> Cube.Pos

let map_cover map_lit c =
  let n = Cover.n_vars c in
  Cover.make n
    (List.map
       (fun cube -> Cube.of_literals n (List.map map_lit (Cube.literals cube)))
       (Cover.cubes c))

let check_arity name t c =
  if Cover.n_vars c <> Array.length t.perm then
    invalid_arg (Printf.sprintf "Nxc_logic.Npn.%s: arity mismatch" name)

let cover_to_canon t c =
  check_arity "cover_to_canon" t c;
  map_cover
    (fun (v, p) -> (t.perm.(v), if t.input_neg.(v) then flip p else p))
    c

let cover_of_canon t c =
  check_arity "cover_of_canon" t c;
  let inv = Array.make (Array.length t.perm) 0 in
  Array.iteri (fun v w -> inv.(w) <- v) t.perm;
  map_cover
    (fun (w, q) ->
      let v = inv.(w) in
      (v, if t.input_neg.(v) then flip q else q))
    c
