module Obs = Nxc_obs
module Guard = Nxc_guard

let m_calls = Obs.Metrics.counter "qm.minimize_calls"
let m_primes = Obs.Metrics.counter "qm.prime_implicants"
let m_nodes = Obs.Metrics.counter "qm.bnb_nodes"
let m_budget_exhausted = Obs.Metrics.counter "qm.budget_exhausted"
let h_primes = Obs.Metrics.hdr "qm.primes_per_call"

exception Guard_exhausted

(* Level k holds every implicant of [on ∪ dc] with k free variables,
   as (mask, bits) pairs sorted for binary search.  A cube merges with
   the cube of the same mask and one more positive literal; the merged
   cube is emitted only along its highest free variable, so each
   implicant of the next level is produced exactly once.  [guard] is
   charged, in bulk, one step per pair of cubes on adjacent positive
   counts — |B_p|·|B_p+1| for each bucket pair p, p+1, the pair count
   of the classic bucketed scan — and exhaustion raises
   {!Guard_exhausted}. *)
let primes_guarded guard ~n ~on ~dc =
  let full = (1 lsl n) - 1 in
  let order (m1, b1) (m2, b2) =
    if m1 <> m2 then Int.compare m1 m2 else Int.compare b1 b2
  in
  let find level c =
    let rec go lo hi =
      if lo >= hi then -1
      else
        let mid = (lo + hi) / 2 in
        let r = order level.(mid) c in
        if r = 0 then mid else if r < 0 then go (mid + 1) hi else go lo mid
    in
    go 0 (Array.length level)
  in
  let level =
    ref
      (Array.of_list
         (List.map
            (fun m -> (full, m))
            (List.sort_uniq compare
               (List.map (fun m -> m land full) (on @ dc)))))
  in
  let primes = ref [] in
  while Array.length !level > 0 do
    let cubes = !level in
    let bucket = Array.make (n + 2) 0 in
    Array.iter
      (fun (_, bits) ->
        let p = Bitslice.popcount bits in
        bucket.(p) <- bucket.(p) + 1)
      cubes;
    let pairs = ref 0 in
    for p = 0 to n - 1 do
      pairs := !pairs + (bucket.(p) * bucket.(p + 1))
    done;
    if not (Guard.Budget.charge guard !pairs) then raise Guard_exhausted;
    let merged = Array.make (Array.length cubes) false in
    let next = ref [] in
    Array.iteri
      (fun i (mask, bits) ->
        let free = full land lnot mask in
        Bitslice.iter_set (mask land lnot bits) (fun v ->
            let bit = 1 lsl v in
            let j = find cubes (mask, bits lor bit) in
            if j >= 0 then begin
              merged.(i) <- true;
              merged.(j) <- true;
              if bit > free then next := (mask lxor bit, bits) :: !next
            end))
      cubes;
    Array.iteri
      (fun i (mask, bits) ->
        if not merged.(i) then primes := Cube.of_masks n ~mask ~bits :: !primes)
      cubes;
    let next = Array.of_list !next in
    Array.sort order next;
    level := next
  done;
  List.sort Cube.compare !primes

let primes ~n ~on ~dc = primes_guarded Guard.Budget.unlimited ~n ~on ~dc

type stats = { num_primes : int; num_essential : int; exact : bool }

type cover_backend = Bnb | Sat

(* process-wide default, set once at CLI/service start-up before any
   worker domain spawns (workers then read a stable published value) *)
let default_backend = ref Bnb
let set_cover_backend b = default_backend := b

(* Branch and bound over the covering problem: minimize the number of
   chosen primes covering all ON minterms.  The minterms are indexed in
   [on_list] order and sets of them are word bitsets, so the first
   uncovered minterm is the lowest set bit and branching visits the
   primes covering it in index order.  [budget] caps explored nodes;
   the ambient budget is consumed once per node.  Returns the best
   cover found, whether the search completed, and the node count. *)
let cover_exact ~budget primes_arr on_list =
  let guard = Guard.Budget.current () in
  let on = Array.of_list on_list in
  let words = Bitslice.words_for (Array.length on) in
  let wb = Bitslice.word_bits in
  let coverage p =
    let w = Array.make words 0 in
    Array.iteri
      (fun j m ->
        if Cube.eval_int p m then
          w.(j / wb) <- w.(j / wb) lor (1 lsl (j mod wb)))
      on;
    w
  in
  let cov = Array.map coverage primes_arr in
  (* for each minterm index, the primes covering it, ascending *)
  let covering =
    Array.init (Array.length on) (fun j ->
        List.filter
          (fun i -> cov.(i).(j / wb) land (1 lsl (j mod wb)) <> 0)
          (List.init (Array.length primes_arr) Fun.id))
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
  let rec go chosen n_chosen uncovered =
    incr nodes;
    if !nodes > budget || not (Guard.Budget.step guard) then raise Budget;
    match first_set uncovered with
    | -1 ->
        if n_chosen < !best_size then begin
          best_size := n_chosen;
          best := Some chosen
        end
    | j ->
        if n_chosen + 1 >= !best_size then () (* bound *)
        else
          List.iter
            (fun i ->
              let c = cov.(i) in
              go (i :: chosen) (n_chosen + 1)
                (Array.mapi (fun w u -> u land lnot c.(w)) uncovered))
            covering.(j)
  in
  let all =
    Array.init words (fun w ->
        if w = words - 1 then Bitslice.tail_mask (Array.length on) else -1)
  in
  let exact =
    match go [] 0 all with
    | () -> true
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
    Ok (Cover.bottom n, { num_primes = 0; num_essential = 0; exact = true })
  else
    match primes_guarded guard ~n ~on ~dc:[] with
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
        let remaining = List.filter (fun m -> not (covered m)) on in
        let rest_primes =
          Array.of_list
            (List.filteri
               (fun i _ -> not (Hashtbl.mem essential i))
               (Array.to_list primes_arr))
        in
        let bnb () =
          match cover_exact ~budget:node_budget rest_primes remaining with
          | Some sol, ex, _ -> (sol, ex)
          | None, _, _ -> (greedy_cover rest_primes remaining, false)
        in
        let rest_result =
          if remaining = [] then Ok ([], true)
          else
            match backend with
            | Bnb -> Ok (bnb ())
            | Sat -> (
                match
                  Sat_cover.min_cube_cover ~primes:rest_primes
                    ~minterms:remaining ()
                with
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
            Ok
              ( Cover.make n cubes,
                { num_primes = Array.length primes_arr;
                  num_essential = List.length essential_idx;
                  exact } ))

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
        { num_primes = 0; num_essential = 0; exact = false } )

let minimize_table tt =
  minimize ~n:(Truth_table.n_vars tt) (Truth_table.minterms tt)
