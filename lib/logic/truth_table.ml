type t = { n : int; bits : Bitvec.t }

let max_vars = 22

let check_n n =
  if n < 0 || n > max_vars then
    invalid_arg "Truth_table: arity out of range"

let n_vars f = f.n
let size f = 1 lsl f.n

let create n b =
  check_n n;
  { n; bits = Bitvec.create (1 lsl n) b }

let of_fun_int n f =
  check_n n;
  { n; bits = Bitvec.init (1 lsl n) f }

let of_bitvec n bits =
  check_n n;
  if Bitvec.length bits <> 1 lsl n then invalid_arg "Truth_table.of_bitvec";
  { n; bits = Bitvec.copy bits }

let of_cover c = of_fun_int (Cover.n_vars c) (Cover.eval_int c)

let of_minterms n ms =
  let f = create n false in
  List.iter
    (fun m ->
      if m < 0 || m >= size f then invalid_arg "Truth_table.of_minterms";
      Bitvec.set f.bits m true)
    ms;
  f

let eval_int f m = Bitvec.get f.bits m

let equal a b = a.n = b.n && Bitvec.equal a.bits b.bits

let first_diff a b =
  if a.n <> b.n then invalid_arg "Truth_table: arity mismatch";
  Bitvec.first_diff a.bits b.bits

let compare a b =
  let c = Int.compare a.n b.n in
  if c <> 0 then c
  else
    match Bitvec.first_diff a.bits b.bits with
    | None -> 0
    | Some m -> if Bitvec.get a.bits m then 1 else -1

let count_ones f = Bitvec.popcount f.bits

let is_const f =
  if Bitvec.is_all true f.bits then Some true
  else if Bitvec.is_all false f.bits then Some false
  else None

let minterms f = List.rev (Bitvec.fold_true (fun i acc -> i :: acc) f.bits [])

let lift2 op a b =
  if a.n <> b.n then invalid_arg "Truth_table: arity mismatch";
  { n = a.n; bits = op a.bits b.bits }

let bnot f = { f with bits = Bitvec.lnot f.bits }
let band = lift2 Bitvec.land_
let bor = lift2 Bitvec.lor_
let bsub a b = band a (bnot b)

let implies a b = count_ones (bsub a b) = 0

let dual f =
  let full = size f - 1 in
  of_fun_int f.n (fun m -> not (eval_int f (m lxor full)))

let cofactor f v b =
  if v < 0 || v >= f.n then invalid_arg "Truth_table.cofactor";
  let bit = 1 lsl v in
  of_fun_int f.n (fun m ->
      eval_int f (if b then m lor bit else m land lnot bit))

let depends_on f v = not (equal (cofactor f v false) (cofactor f v true))

let lift f n map =
  check_n n;
  if Array.length map <> f.n then invalid_arg "Truth_table.lift";
  Array.iter
    (fun v -> if v < 0 || v >= n then invalid_arg "Truth_table.lift: range")
    map;
  of_fun_int n (fun m ->
      let small = ref 0 in
      Array.iteri
        (fun i v -> if m land (1 lsl v) <> 0 then small := !small lor (1 lsl i))
        map;
      eval_int f !small)

(* splitmix64-style mixing for deterministic random tables *)
let mix seed i =
  let golden = 0x1E3779B97F4A7C15 in
  let m1 = 0x3F58476D1CE4E5B9 and m2 = 0x14D049BB133111EB in
  let z = ref (seed + ((i + 1) * golden)) in
  z := (!z lxor (!z lsr 30)) * m1;
  z := (!z lxor (!z lsr 27)) * m2;
  !z lxor (!z lsr 31)

let random_with_density n ~seed ~density =
  let threshold =
    int_of_float (density *. 1073741824.0 (* 2^30 *))
  in
  of_fun_int n (fun m -> mix seed m land 0x3FFFFFFF < threshold)
