module Obs = Nxc_obs
module Guard = Nxc_guard
module Sat = Nxc_sat

let m_calls = Obs.Metrics.counter "sat.cover_calls"
let m_optimal = Obs.Metrics.counter "sat.cover_optimal"
let m_partial = Obs.Metrics.counter "sat.cover_partial"

type outcome = { chosen : int list; optimal : bool }

let min_cover ~num_sets ~covered_by () =
  let guard = Guard.Budget.current () in
  Obs.Metrics.incr m_calls;
  Obs.Span.with_ ~name:"sat.min_cover"
    ~attrs:(fun () ->
      [ ("sets", Obs.Json.Int num_sets);
        ("elements", Obs.Json.Int (Array.length covered_by)) ])
  @@ fun () ->
  if Array.exists (( = ) []) covered_by then
    Error (Guard.Error.unsat "Sat_cover: an element has no covering set")
  else begin
    let s = Sat.Solver.create () in
    let sel = Array.init num_sets (fun _ -> Sat.Solver.new_var s) in
    Array.iter
      (fun who -> Sat.Solver.add_clause s (List.map (fun i -> sel.(i)) who))
      covered_by;
    (* one-sided counter over the selectors: assuming [-o.(b)] caps the
       cover size at [b], so the bound tightens solve after solve on
       one shared circuit *)
    let o = Sat.Card.counter s (Array.to_list sel) ~max:num_sets in
    let extract () =
      List.filter (fun i -> Sat.Solver.value s sel.(i)) (List.init num_sets Fun.id)
    in
    let rec tighten best =
      let bound = List.length best in
      if bound = 0 then Ok { chosen = best; optimal = true }
      else
        match Sat.Solver.solve ~assumptions:[ -o.(bound - 1) ] s with
        | Sat.Solver.Sat -> tighten (extract ())
        | Sat.Solver.Unsat ->
            Obs.Metrics.incr m_optimal;
            Ok { chosen = best; optimal = true }
        | Sat.Solver.Unknown ->
            Obs.Metrics.incr m_partial;
            Ok { chosen = best; optimal = false }
    in
    match Sat.Solver.solve s with
    | Sat.Solver.Sat -> tighten (extract ())
    | Sat.Solver.Unsat ->
        (* cannot happen: every element had a covering set, and
           selecting all sets satisfies every clause *)
        Error (Guard.Error.internal "Sat_cover: unconstrained solve UNSAT")
    | Sat.Solver.Unknown -> Error (Guard.Budget.error guard)
  end

let min_cube_cover ~primes ~minterms () =
  let covered_by =
    Array.of_list
      (List.map
         (fun m ->
           let who = ref [] in
           for i = Array.length primes - 1 downto 0 do
             if Cube.eval_int primes.(i) m then who := i :: !who
           done;
           !who)
         minterms)
  in
  min_cover ~num_sets:(Array.length primes) ~covered_by ()
