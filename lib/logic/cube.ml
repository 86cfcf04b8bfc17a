type polarity = Pos | Neg

(* [mask] has a bit per constrained variable; [bits] gives the polarity
   of constrained variables (set = positive) and is kept to zero on
   unconstrained positions so that structural equality works. *)
type t = { n : int; mask : int; bits : int }

let max_vars = Sys.int_size - 2

let check_n n =
  if n < 0 || n > max_vars then invalid_arg "Cube: variable count out of range"

let n_vars c = c.n

let top n =
  check_n n;
  { n; mask = 0; bits = 0 }

let literal n v p =
  check_n n;
  if v < 0 || v >= n then invalid_arg "Cube.literal: variable out of range";
  { n; mask = 1 lsl v; bits = (match p with Pos -> 1 lsl v | Neg -> 0) }

let of_literals n lits =
  List.fold_left
    (fun c (v, p) ->
      let l = literal n v p in
      if c.mask land l.mask <> 0 && c.bits land l.mask <> l.bits then
        invalid_arg "Cube.of_literals: conflicting polarities";
      { c with mask = c.mask lor l.mask; bits = c.bits lor l.bits })
    (top n) lits

let polarity_of c v =
  if v < 0 || v >= c.n then invalid_arg "Cube.polarity_of";
  if c.mask land (1 lsl v) = 0 then None
  else Some (if c.bits land (1 lsl v) <> 0 then Pos else Neg)

let literals c =
  let rec go v acc =
    if v < 0 then acc
    else
      match polarity_of c v with
      | None -> go (v - 1) acc
      | Some p -> go (v - 1) ((v, p) :: acc)
  in
  go (c.n - 1) []

let is_top c = c.mask = 0

let eval_int c m = m land c.mask = c.bits

let check_same a b =
  if a.n <> b.n then invalid_arg "Cube: arity mismatch"

let contains a b =
  check_same a b;
  (* every literal of [a] appears in [b] with the same polarity *)
  a.mask land b.mask = a.mask && b.bits land a.mask = a.bits

let intersect a b =
  check_same a b;
  let common = a.mask land b.mask in
  if a.bits land common <> b.bits land common then None
  else Some { n = a.n; mask = a.mask lor b.mask; bits = a.bits lor b.bits }

let common_literals a b =
  check_same a b;
  let agree = lnot (a.bits lxor b.bits) land (a.mask land b.mask) in
  let rec go v acc =
    if v < 0 then acc
    else if agree land (1 lsl v) <> 0 then
      go (v - 1) ((v, (if a.bits land (1 lsl v) <> 0 then Pos else Neg)) :: acc)
    else go (v - 1) acc
  in
  go (a.n - 1) []

let cofactor c v p =
  if v < 0 || v >= c.n then invalid_arg "Cube.cofactor";
  match polarity_of c v with
  | None -> Some c
  | Some q when q = p ->
      let bit = 1 lsl v in
      Some { c with mask = c.mask land lnot bit; bits = c.bits land lnot bit }
  | Some _ -> None

let of_masks n ~mask ~bits =
  check_n n;
  if mask land lnot ((1 lsl n) - 1) <> 0 then
    invalid_arg "Cube.of_masks: variable out of range";
  { n; mask; bits = bits land mask }

let compare a b =
  let c = Stdlib.compare a.n b.n in
  if c <> 0 then c
  else
    let c = Stdlib.compare a.mask b.mask in
    if c <> 0 then c else Stdlib.compare a.bits b.bits

let equal a b = compare a b = 0

let pp ppf c =
  if is_top c then Format.pp_print_char ppf '1'
  else
    List.iter
      (fun (v, p) ->
        Format.fprintf ppf "x%d%s" (v + 1) (match p with Pos -> "" | Neg -> "'"))
      (literals c)
