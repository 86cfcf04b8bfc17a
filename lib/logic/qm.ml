module Obs = Nxc_obs
module Guard = Nxc_guard

let m_calls = Obs.Metrics.counter "qm.minimize_calls"
let m_primes = Obs.Metrics.counter "qm.prime_implicants"
let m_nodes = Obs.Metrics.counter "qm.bnb_nodes"
let m_budget_exhausted = Obs.Metrics.counter "qm.budget_exhausted"
let m_certified = Obs.Metrics.counter "qm.certified"
let h_primes = Obs.Metrics.hdr "qm.primes_per_call"

exception Guard_exhausted

let max_vars = 8

(* Level k holds every implicant of [on] with k free variables, packed
   as [mask lsl n lor bits].  A dense table indexed by the ternary code
   of a cube (digit v: 0 negative, 1 positive, 2 free) marks which
   implicants exist and which of them merged, so the partner of a cube
   with variable v negative sits at [t + 3^v] and the merged cube at
   [t + 2·3^v]; 3^8 = 6561 entries at the largest [n].  The merged cube
   is emitted only along its highest free variable, so each implicant
   of the next level is produced exactly once.  [guard] is charged, in
   bulk, one step per pair of cubes on adjacent positive counts —
   |B_p|·|B_p+1| for each bucket pair p, p+1, the pair count of the
   classic bucketed scan — and exhaustion raises {!Guard_exhausted}. *)
let primes_guarded guard ~n ~on =
  if n < 0 || n > max_vars then invalid_arg "Qm: more than 8 variables";
  let full = (1 lsl n) - 1 in
  let pow3 = Array.make (n + 1) 1 in
  for v = 1 to n do
    pow3.(v) <- 3 * pow3.(v - 1)
  done;
  (* tern.(s): the code of the variable set [s] at digit 1 *)
  let tern = Array.make (full + 1) 0 in
  for s = 1 to full do
    tern.(s) <- tern.(s land (s - 1)) + pow3.(Bitslice.lowest_set s)
  done;
  let code e = tern.(e land full) + (2 * tern.(full lxor (e lsr n))) in
  let present = '\001' and merged = '\002' in
  let table = Bytes.make pow3.(n) '\000' in
  (* every level, back to back: level k is [cubes.(lo) .. cubes.(hi-1)] *)
  let cubes = Array.make pow3.(n) 0 in
  let hi = ref 0 in
  List.iter
    (fun m ->
      Bytes.set table tern.(m) present;
      cubes.(!hi) <- (full lsl n) lor m;
      incr hi)
    (List.sort_uniq compare (List.map (fun m -> m land full) on));
  let lo = ref 0 in
  let primes = ref [] in
  let bucket = Array.make (n + 2) 0 in
  while !lo < !hi do
    let first = !lo and last = !hi in
    Array.fill bucket 0 (n + 2) 0;
    for i = first to last - 1 do
      let p = Bitslice.popcount (cubes.(i) land full) in
      bucket.(p) <- bucket.(p) + 1
    done;
    let pairs = ref 0 in
    for p = 0 to n - 1 do
      pairs := !pairs + (bucket.(p) * bucket.(p + 1))
    done;
    if not (Guard.Budget.charge guard !pairs) then raise Guard_exhausted;
    for i = first to last - 1 do
      let e = cubes.(i) in
      let mask = e lsr n and bits = e land full in
      let free = full lxor mask in
      let t = code e in
      let neg = ref (mask land lnot bits) in
      while !neg <> 0 do
        let bit = !neg land - !neg in
        neg := !neg lxor bit;
        let v = Bitslice.lowest_set bit in
        let u = t + pow3.(v) in
        if Bytes.get table u <> '\000' then begin
          Bytes.set table t merged;
          Bytes.set table u merged;
          if bit > free then begin
            Bytes.set table (u + pow3.(v)) present;
            cubes.(!hi) <- ((mask lxor bit) lsl n) lor bits;
            incr hi
          end
        end
      done
    done;
    for i = first to last - 1 do
      let e = cubes.(i) in
      if Bytes.get table (code e) = present then
        primes :=
          Cube.of_masks n ~mask:(e lsr n) ~bits:(e land full) :: !primes
    done;
    lo := last
  done;
  List.sort Cube.compare !primes

let primes ~n ~on = primes_guarded Guard.Budget.unlimited ~n ~on

type stats = {
  num_primes : int;
  num_essential : int;
  exact : bool;
  lower_bound : int;
  witness : int list;
}

type cover_backend = Bnb | Sat

(* process-wide default, set once at CLI/service start-up before any
   worker domain spawns (workers then read a stable published value) *)
let default_backend = ref Bnb
let set_cover_backend b = default_backend := b

(* Branch and bound over the covering problem: minimize the number of
   chosen sets covering every element.  Sets of elements are word
   bitsets, so the first uncovered element is the lowest set bit and
   branching visits the sets covering it in index order.  A node is
   pruned when [chosen + bound] reaches the best cover so far; the
   bound is the number of [witness] elements still uncovered (no two
   share a set), and only when that is within one of pruning the greedy
   independent set of the uncovered elements.  The search stops once a
   cover as small as the witness is found.  [budget] caps explored
   nodes; the ambient budget is consumed once per node.  Returns the
   best cover found, whether the search completed, and the node
   count. *)
let cover_exact ~budget ~num_sets ~covered_by ~witness =
  let guard = Guard.Budget.current () in
  let elems = Array.length covered_by in
  let words = Bitslice.words_for elems in
  let wb = Bitslice.word_bits in
  (* the greedy order of {!Sat_cover.independent_set}: [order.(r)] is
     the element of rank r *)
  let sets = Array.map List.length covered_by in
  let order = Array.init elems Fun.id in
  Array.stable_sort (fun a b -> Int.compare sets.(a) sets.(b)) order;
  let rank = Array.make elems 0 in
  Array.iteri (fun r j -> rank.(j) <- r) order;
  (* a set of elements is [2 * words] words: by index, then by rank, so
     that branching finds the first element and the greedy bound walks
     the uncovered ones in its order, each by their lowest set bit *)
  let bitset l =
    let w = Array.make (2 * words) 0 in
    List.iter
      (fun j ->
        w.(j / wb) <- w.(j / wb) lor (1 lsl (j mod wb));
        let r = rank.(j) in
        w.(words + (r / wb)) <- w.(words + (r / wb)) lor (1 lsl (r mod wb)))
      l;
    w
  in
  let members = Array.make num_sets [] in
  for j = elems - 1 downto 0 do
    List.iter (fun i -> members.(i) <- j :: members.(i)) covered_by.(j)
  done;
  let cov = Array.map bitset members in
  let wit = bitset witness in
  let root_bound = List.length witness in
  (* [near.(r)]: the elements sharing a set with the element of rank r,
     itself included, as the rank words of a set *)
  let near =
    Array.map
      (fun j ->
        let w = Array.make words 0 in
        List.iter
          (fun i ->
            for k = 0 to words - 1 do
              w.(k) <- w.(k) lor cov.(i).(words + k)
            done)
          covered_by.(j);
        w)
      order
  in
  let cand = Array.make words 0 in
  (* whether the greedy independent set of the uncovered elements
     reaches [need]: take the uncovered element of lowest rank, drop
     every element sharing a set with it, repeat; it stops counting at
     [need] *)
  let greedy_reaches uncovered need =
    for k = 0 to words - 1 do
      cand.(k) <- uncovered.(words + k)
    done;
    let count = ref 0 and w = ref 0 in
    while !count < need && !w < words do
      if cand.(!w) = 0 then incr w
      else begin
        incr count;
        let nr = near.((!w * wb) + Bitslice.lowest_set cand.(!w)) in
        for k = !w to words - 1 do
          cand.(k) <- cand.(k) land lnot nr.(k)
        done
      end
    done;
    !count >= need
  in
  let witness_left uncovered =
    let c = ref 0 in
    for w = 0 to words - 1 do
      c := !c + Bitslice.popcount (uncovered.(w) land wit.(w))
    done;
    !c
  in
  let first_set u =
    let rec go w =
      if w = words then -1
      else if u.(w) <> 0 then (w * wb) + Bitslice.lowest_set u.(w)
      else go (w + 1)
    in
    go 0
  in
  let nodes = ref 0 in
  let best = ref None in
  let best_size = ref max_int in
  let exception Budget in
  let exception At_bound in
  let rec go chosen n_chosen uncovered =
    incr nodes;
    if !nodes > budget || not (Guard.Budget.step guard) then raise Budget;
    match first_set uncovered with
    | -1 ->
        if n_chosen < !best_size then begin
          best_size := n_chosen;
          best := Some chosen;
          if n_chosen <= root_bound then raise At_bound
        end
    | j ->
        let left = max 1 (witness_left uncovered) in
        if n_chosen + left >= !best_size then () (* bound *)
        else if
          n_chosen + left + 1 >= !best_size
          && greedy_reaches uncovered (!best_size - n_chosen)
        then ()
        else
          List.iter
            (fun i ->
              let c = cov.(i) in
              let rest = Array.make (2 * words) 0 in
              for w = 0 to (2 * words) - 1 do
                rest.(w) <- uncovered.(w) land lnot c.(w)
              done;
              go (i :: chosen) (n_chosen + 1) rest)
            covered_by.(j)
  in
  let all =
    Array.init (2 * words) (fun w ->
        if w mod words = words - 1 then Bitslice.tail_mask elems else -1)
  in
  let exact =
    match go [] 0 all with
    | () | (exception At_bound) -> true
    | exception Budget ->
        Obs.Metrics.incr m_budget_exhausted;
        false
  in
  Obs.Metrics.add m_nodes !nodes;
  (!best, exact, !nodes)

let greedy_cover primes_arr on_list =
  let uncovered = ref on_list in
  let chosen = ref [] in
  while !uncovered <> [] do
    let best_i = ref (-1) and best_gain = ref (-1) in
    Array.iteri
      (fun i p ->
        let gain =
          List.fold_left
            (fun acc m -> if Cube.eval_int p m then acc + 1 else acc)
            0 !uncovered
        in
        if gain > !best_gain then begin
          best_gain := gain;
          best_i := i
        end)
      primes_arr;
    let p = primes_arr.(!best_i) in
    chosen := !best_i :: !chosen;
    uncovered := List.filter (fun m -> not (Cube.eval_int p m)) !uncovered
  done;
  !chosen

(* ISOP of the ON-set: the graceful-degradation target when the guard
   trips during prime generation.  Polynomial in the table size, so it
   terminates promptly even with a dead guard. *)
let isop_fallback ~n ~on =
  let lower = Truth_table.of_minterms n on in
  Isop.isop ~lower lower

(* the branch-and-bound node cap of every minimization *)
let node_budget = 200_000

let minimize_with ~backend ~n on =
  let guard = Guard.Budget.current () in
  Obs.Metrics.incr m_calls;
  Obs.Span.with_ ~name:"qm.minimize"
    ~attrs:(fun () -> [ ("n", Obs.Json.Int n) ])
  @@ fun () ->
  let on = List.sort_uniq compare on in
  if on = [] then
    Ok
      ( Cover.bottom n,
        { num_primes = 0; num_essential = 0; exact = true; lower_bound = 0;
          witness = [] } )
  else
    match primes_guarded guard ~n ~on with
    | exception Guard_exhausted ->
        Obs.Metrics.incr m_budget_exhausted;
        Error (Guard.Budget.error guard)
    | ps ->
        Obs.Metrics.add m_primes (List.length ps);
        Obs.Metrics.hdr_observe h_primes (List.length ps);
        let primes_arr = Array.of_list ps in
        (* essential primes: sole cover of some ON minterm *)
        let essential = Hashtbl.create 16 in
        List.iter
          (fun m ->
            let who = ref [] in
            Array.iteri
              (fun i p -> if Cube.eval_int p m then who := i :: !who)
              primes_arr;
            match !who with
            | [ i ] -> Hashtbl.replace essential i ()
            | _ -> ())
          on;
        let essential_idx =
          Hashtbl.fold (fun i () acc -> i :: acc) essential []
        in
        let covered m =
          List.exists (fun i -> Cube.eval_int primes_arr.(i) m) essential_idx
        in
        let remaining = Array.of_list (List.filter (fun m -> not (covered m)) on) in
        let rest_primes =
          Array.of_list
            (List.filteri
               (fun i _ -> not (Hashtbl.mem essential i))
               (Array.to_list primes_arr))
        in
        let num_sets = Array.length rest_primes in
        (* for each remaining minterm, the primes covering it, ascending *)
        let covered_by =
          Array.map
            (fun m ->
              List.filter
                (fun i -> Cube.eval_int rest_primes.(i) m)
                (List.init num_sets Fun.id))
            remaining
        in
        let witness = Sat_cover.independent_set covered_by in
        let bound = List.length witness in
        let bnb () =
          match cover_exact ~budget:node_budget ~num_sets ~covered_by ~witness with
          | Some sol, ex, _ -> (sol, ex)
          | None, _, _ ->
              (greedy_cover rest_primes (Array.to_list remaining), false)
        in
        let rest_result =
          if remaining = [||] then Ok ([], true)
          else
            match backend with
            | Bnb -> Ok (bnb ())
            | Sat -> (
                match Sat_cover.min_cover ~num_sets ~covered_by ~bound () with
                | Ok { Sat_cover.chosen; optimal } -> Ok (chosen, optimal)
                | Error (`Budget_exhausted _ as e)
                  when Guard.Budget.policy guard = Guard.Budget.Fail ->
                    Obs.Metrics.incr m_budget_exhausted;
                    Error e
                | Error _ ->
                    (* the solver ran out before any certificate:
                       degrade to branch and bound (which, on a dead
                       guard, immediately winds down to greedy) *)
                    Guard.Budget.degrade "sat_to_bnb";
                    Ok (bnb ()))
        in
        (match rest_result with
        | Error e -> Error e
        | Ok (rest_idx, exact) ->
            let rest_cubes = List.map (fun i -> rest_primes.(i)) rest_idx in
            let cubes =
              List.map (fun i -> primes_arr.(i)) essential_idx @ rest_cubes
            in
            let num_essential = List.length essential_idx in
            let lower_bound = num_essential + bound in
            if exact && List.length cubes = lower_bound then
              Obs.Metrics.incr m_certified;
            Ok
              ( Cover.make n cubes,
                { num_primes = Array.length primes_arr;
                  num_essential;
                  exact;
                  lower_bound;
                  witness = List.map (fun j -> remaining.(j)) witness } ))

let backend_of = function Some b -> b | None -> !default_backend

let minimize_result ?cover_backend ~n on =
  minimize_with ~backend:(backend_of cover_backend) ~n on

let minimize ~n on =
  (* a Degrade view keeps the total contract: the SAT covering backend
     never fails here, it falls back under guard.degrade.sat_to_bnb *)
  match
    Guard.Budget.with_current
      (Guard.Budget.degrading (Guard.Budget.current ()))
      (fun () -> minimize_result ~n on)
  with
  | Ok r -> r
  | Error _ ->
      (* graceful degradation: prime generation ran out of budget; an
         ISOP cover of the ON-set is still function-equivalent, just not
         minimal *)
      Guard.Budget.degrade "qm_to_isop";
      ( isop_fallback ~n ~on,
        { num_primes = 0; num_essential = 0; exact = false; lower_bound = 0;
          witness = [] } )

let minimize_table tt =
  minimize ~n:(Truth_table.n_vars tt) (Truth_table.minterms tt)
