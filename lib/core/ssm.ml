module L = Nxc_logic
module Lt = Nxc_lattice

type t = {
  n_inputs : int;
  state_bits : int;
  next_lattices : Lt.Lattice.t array;
  out_lattices : Lt.Lattice.t array;
}

let lattice_of f =
  match L.Boolfunc.is_const f with
  | Some b -> Lt.Compose.of_const (max 1 (L.Boolfunc.n_vars f)) b
  | None -> Lt.Altun_riedel.synthesize f

let make ~n_inputs ~state_bits ~next_state ~outputs =
  if state_bits <= 0 then invalid_arg "Ssm.make: no state";
  if Array.length next_state <> state_bits then
    invalid_arg "Ssm.make: one next-state function per state bit";
  let arity = n_inputs + state_bits in
  Array.iter
    (fun f ->
      if L.Boolfunc.n_vars f <> arity then
        invalid_arg "Ssm.make: arity must be inputs + state bits")
    (Array.append next_state outputs);
  { n_inputs;
    state_bits;
    next_lattices = Array.map lattice_of next_state;
    out_lattices = Array.map lattice_of outputs }

let logic_area t =
  Array.fold_left (fun acc l -> acc + Lt.Lattice.area l) 0 t.next_lattices
  + Array.fold_left (fun acc l -> acc + Lt.Lattice.area l) 0 t.out_lattices

let step t ~state ~input =
  if state < 0 || state >= 1 lsl t.state_bits then invalid_arg "Ssm.step: state";
  if input < 0 || (t.n_inputs > 0 && input >= 1 lsl t.n_inputs) then
    invalid_arg "Ssm.step: input";
  let m = input lor (state lsl t.n_inputs) in
  let next = ref 0 and out = ref 0 in
  Array.iteri
    (fun b l -> if Lt.Lattice.eval_int l m then next := !next lor (1 lsl b))
    t.next_lattices;
  Array.iteri
    (fun b l -> if Lt.Lattice.eval_int l m then out := !out lor (1 lsl b))
    t.out_lattices;
  (!next, !out)

let run t ~init inputs =
  let state = ref init in
  List.map
    (fun input ->
      let next, out = step t ~state:!state ~input in
      state := next;
      (next, out))
    inputs

let bits_for n =
  let rec go b = if 1 lsl b >= n then b else go (b + 1) in
  max 1 (go 1)

let counter ~bits =
  if bits <= 0 then invalid_arg "Ssm.counter";
  let arity = 1 + bits in
  (* variable 0 = enable; variables 1..bits = state *)
  let next_state =
    Array.init bits (fun b ->
        L.Boolfunc.of_fun_int ~name:(Printf.sprintf "cnt_next%d" b) arity
          (fun m ->
            let enable = m land 1 = 1 in
            let state = m lsr 1 in
            let next = if enable then (state + 1) land ((1 lsl bits) - 1) else state in
            (next lsr b) land 1 = 1))
  in
  let outputs =
    Array.init bits (fun b ->
        L.Boolfunc.of_fun_int ~name:(Printf.sprintf "cnt_out%d" b) arity
          (fun m -> (m lsr (1 + b)) land 1 = 1))
  in
  make ~n_inputs:1 ~state_bits:bits ~next_state ~outputs

let sequence_detector ~pattern =
  let pat = Array.of_list pattern in
  let len = Array.length pat in
  if len = 0 then invalid_arg "Ssm.sequence_detector: empty pattern";
  (* KMP-style automaton over states 0..len-1 = matched prefix length *)
  let matches q b =
    (* longest k <= len such that pat[0..k-1] is a suffix of
       pat[0..q-1] followed by b *)
    let word = Array.append (Array.sub pat 0 q) [| b |] in
    let wl = Array.length word in
    let rec try_k k =
      if k = 0 then 0
      else if
        k <= wl
        && Array.for_all Fun.id
             (Array.init k (fun i -> pat.(i) = word.(wl - k + i)))
      then k
      else try_k (k - 1)
    in
    try_k (min len wl)
  in
  (* longest proper border of the full pattern: the state to resume
     from after an accept, preserving overlaps *)
  let border =
    let rec proper k =
      if k = 0 then 0
      else if
        Array.for_all Fun.id
          (Array.init k (fun i -> pat.(i) = pat.(len - k + i)))
      then k
      else proper (k - 1)
    in
    proper (len - 1)
  in
  let delta q b =
    let k = matches q b in
    if k = len then (border, true) else (k, false)
  in
  let state_bits = bits_for len in
  let arity = 1 + state_bits in
  let next_state =
    Array.init state_bits (fun b ->
        L.Boolfunc.of_fun_int ~name:(Printf.sprintf "det_next%d" b) arity
          (fun m ->
            let input = m land 1 = 1 in
            let q = min (len - 1) (m lsr 1) in
            let q', _ = delta q input in
            (q' lsr b) land 1 = 1))
  in
  let outputs =
    [| L.Boolfunc.of_fun_int ~name:"det_accept" arity (fun m ->
           let input = m land 1 = 1 in
           let q = min (len - 1) (m lsr 1) in
           snd (delta q input)) |]
  in
  make ~n_inputs:1 ~state_bits ~next_state ~outputs

let equivalent_to t ~reference =
  let states = 1 lsl t.state_bits in
  let inputs = if t.n_inputs = 0 then 1 else 1 lsl t.n_inputs in
  let rec go s i =
    if s >= states then true
    else if i >= inputs then go (s + 1) 0
    else
      step t ~state:s ~input:i = reference ~state:s ~input:i && go s (i + 1)
  in
  go 0 0
