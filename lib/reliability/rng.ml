type t = { mutable state : int }

let golden = 0x1E3779B97F4A7C15
let m1 = 0x3F58476D1CE4E5B9
let m2 = 0x14D049BB133111EB

let mix z0 =
  let z = ref z0 in
  z := (!z lxor (!z lsr 30)) * m1;
  z := (!z lxor (!z lsr 27)) * m2;
  !z lxor (!z lsr 31)

let create seed = { state = mix (seed + golden) }

let next t =
  t.state <- t.state + golden;
  mix t.state land max_int

let split t = { state = next t }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  next t mod bound

let float t bound = float_of_int (next t) /. float_of_int max_int *. bound

let bool t p = float t 1.0 < p

let gaussian t =
  let u1 = max 1e-12 (float t 1.0) and u2 = float t 1.0 in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample_without_replacement t k n =
  if k > n then invalid_arg "Rng.sample_without_replacement: k > n";
  let all = Array.init n Fun.id in
  shuffle t all;
  Array.sub all 0 k

let map_trials ?pool rng ~trials f =
  let rngs = Array.init trials (fun _ -> split rng) in
  Nxc_par.Pool.map_range ?pool trials (fun i -> f rngs.(i))
