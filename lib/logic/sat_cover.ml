module Obs = Nxc_obs
module Guard = Nxc_guard
module Sat = Nxc_sat

let m_calls = Obs.Metrics.counter "sat.cover_calls"
let m_optimal = Obs.Metrics.counter "sat.cover_optimal"
let m_partial = Obs.Metrics.counter "sat.cover_partial"

type outcome = { chosen : int list; optimal : bool }

(* Elements in ascending order of how many sets cover them (ties by
   index); each is kept when it shares no set with one kept before.
   Any cover spends a distinct set on every kept element. *)
let independent_set covered_by =
  let order =
    List.sort
      (fun (a, ka) (b, kb) -> if ka <> kb then Int.compare ka kb else Int.compare a b)
      (List.mapi (fun e who -> (e, List.length who)) (Array.to_list covered_by))
  in
  let used = Hashtbl.create 64 in
  List.sort Int.compare
    (List.filter_map
       (fun (e, _) ->
         let who = covered_by.(e) in
         if List.exists (Hashtbl.mem used) who then None
         else begin
           List.iter (fun i -> Hashtbl.replace used i ()) who;
           Some e
         end)
       order)

let min_cover ~num_sets ~covered_by ~bound () =
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
      let size = List.length best in
      if size <= bound then begin
        (* no cover is smaller than the lower bound: optimal without
           the refutation of [size - 1] *)
        Obs.Metrics.incr m_optimal;
        Ok { chosen = best; optimal = true }
      end
      else
        match Sat.Solver.solve ~assumptions:[ -o.(size - 1) ] s with
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
