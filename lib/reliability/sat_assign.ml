module Obs = Nxc_obs
module Guard = Nxc_guard
module Sat = Nxc_sat

let m_calls = Obs.Metrics.counter "sat.assign_calls"
let m_mappable = Obs.Metrics.counter "sat.assign_mappable"
let m_unmappable = Obs.Metrics.counter "sat.assign_unmappable"
let m_degraded = Obs.Metrics.counter "sat.assign_degraded"
let m_certified = Obs.Metrics.counter "sat.assign_matching_certified"
let m_greedy = Obs.Metrics.counter "sat.assign_greedy_witness"

type certificate = Matching of (int * int) array | Refuted

type verdict =
  | Mappable of Bism.mapping
  | Unmappable of certificate
  | Degraded of Bism.mapping option

(* bounded hybrid-BISM retry for the Degrade path: the exhausted budget
   must not also starve the fallback (it would wind down instantly and
   report nothing), so it runs under the unlimited budget with a
   small configuration cap — polynomial, prompt, like Qm's ISOP
   fallback *)
let fallback_max_configs = 48

let undecided guard ~seed chip ~k_rows ~k_cols =
  match Guard.Budget.policy guard with
  | Guard.Budget.Fail -> Error (Guard.Budget.error guard)
  | Guard.Budget.Degrade ->
      Guard.Budget.degrade "sat_to_greedy";
      Obs.Metrics.incr m_degraded;
      let rng = Rng.create seed in
      let _, m =
        Guard.Budget.with_current Guard.Budget.unlimited (fun () ->
            Bism.run rng (Bism.Hybrid 8) ~chip ~k_rows ~k_cols
              ~max_configs:fallback_max_configs)
      in
      Ok (Degraded m)

let mappable ?via chip mapping =
  if not (Bism.mapping_defect_free chip mapping) then
    Error (Guard.Error.internal "Sat_assign: witness is not defect-free")
  else begin
    Obs.Metrics.incr m_mappable;
    Option.iter Obs.Metrics.incr via;
    Ok (Mappable mapping)
  end

(* The balanced-biclique encoding: one selection variable per physical
   line, a blocking clause per defective crosspoint, cardinality bounds
   on both selections. *)
let solve guard ~seed chip ~k_rows ~k_cols =
  let rows = Defect.rows chip and cols = Defect.cols chip in
  let s = Sat.Solver.create ~seed () in
  let r_var = Array.init rows (fun _ -> Sat.Solver.new_var s) in
  let c_var = Array.init cols (fun _ -> Sat.Solver.new_var s) in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if Defect.is_defective chip r c then
        Sat.Solver.add_clause s [ -r_var.(r); -c_var.(c) ]
    done
  done;
  Sat.Card.at_least s (Array.to_list r_var) ~k:k_rows;
  Sat.Card.at_least s (Array.to_list c_var) ~k:k_cols;
  match Sat.Solver.solve s with
  | Sat.Solver.Sat ->
      (* any k_rows/k_cols of the selected lines work: every selected
         crosspoint is defect-free *)
      let pick vars k =
        let acc = ref [] and need = ref k in
        Array.iteri
          (fun i v ->
            if !need > 0 && Sat.Solver.value s v then begin
              acc := i :: !acc;
              decr need
            end)
          vars;
        Array.of_list (List.rev !acc)
      in
      mappable chip
        { Bism.row_map = pick r_var k_rows; col_map = pick c_var k_cols }
  | Sat.Solver.Unsat ->
      Obs.Metrics.incr m_unmappable;
      Ok (Unmappable Refuted)
  | Sat.Solver.Unknown -> undecided guard ~seed chip ~k_rows ~k_cols

let decide ?(seed = 0) chip ~k_rows ~k_cols =
  let rows = Defect.rows chip and cols = Defect.cols chip in
  if k_rows < 1 || k_cols < 1 then
    Error (Guard.Error.invalid_input "Sat_assign: empty logical array")
  else if k_rows > rows || k_cols > cols then
    Error
      (Guard.Error.invalid_inputf
         "Sat_assign: %dx%d logical array exceeds %dx%d chip" k_rows k_cols
         rows cols)
  else begin
    let guard = Guard.Budget.current () in
    Obs.Metrics.incr m_calls;
    Obs.Span.with_ ~name:"sat.assign"
      ~attrs:(fun () ->
        [ ("rows", Obs.Json.Int rows); ("cols", Obs.Json.Int cols);
          ("k_rows", Obs.Json.Int k_rows); ("k_cols", Obs.Json.Int k_cols) ])
    @@ fun () ->
    (* the pre-solve sandwich: the Kőnig bound refutes, Bira's greedy
       repair maps, and the solver sees only what neither decides *)
    let spare_rows = rows - k_rows and spare_cols = cols - k_cols in
    match Bira.defect_matching chip with
    | None -> undecided guard ~seed chip ~k_rows ~k_cols
    | Some m when Array.length m > spare_rows + spare_cols ->
        Obs.Metrics.incr m_unmappable;
        Obs.Metrics.incr m_certified;
        Ok (Unmappable (Matching m))
    | Some _ -> (
        match Bira.greedy_survivors chip ~spare_rows ~spare_cols with
        | `Out_of_budget -> undecided guard ~seed chip ~k_rows ~k_cols
        | `Stuck -> solve guard ~seed chip ~k_rows ~k_cols
        | `Survivors (rs, cs) ->
            mappable ~via:m_greedy chip
              { Bism.row_map = Array.sub rs 0 k_rows;
                col_map = Array.sub cs 0 k_cols })
  end

type mc = {
  sa_trials : int;
  sa_mapped : int;
  sa_unmappable : int;
  sa_degraded : int;
}

let monte_carlo ?pool rng ~trials ~n ~profile ~k_rows ~k_cols =
  if trials <= 0 then
    invalid_arg "Sat_assign.monte_carlo: trials must be positive";
  Obs.Span.with_ ~name:"sat.monte_carlo"
    ~attrs:(fun () ->
      [ ("trials", Obs.Json.Int trials); ("n", Obs.Json.Int n) ])
  @@ fun () ->
  let per =
    Rng.map_trials ?pool rng ~trials (fun r ->
        let seed = Rng.int r 0x3FFFFFFF in
        let chip = Defect.generate r ~rows:n ~cols:n profile in
        (* [decide] reads the ambient budget, which the pool points at
           this slot's partition slice; run it under a Degrade view of
           that budget, so an exhausted trial counts as degraded under
           either policy, sequential or pooled *)
        let g = Guard.Budget.degrading (Guard.Budget.current ()) in
        Guard.Budget.with_current g (fun () ->
            decide ~seed chip ~k_rows ~k_cols))
  in
  let count f = Array.fold_left (fun a x -> if f x then a + 1 else a) 0 per in
  { sa_trials = trials;
    sa_mapped =
      count (function
        | Ok (Mappable _) | Ok (Degraded (Some _)) -> true
        | _ -> false);
    sa_unmappable = count (function Ok (Unmappable _) -> true | _ -> false);
    sa_degraded = count (function Ok (Degraded _) -> true | _ -> false) }
