module R = Nxc_reliability
module Lt = Nxc_lattice
module Guard = Nxc_guard

type result = {
  impl : Synth.t;
  bism : R.Bism.stats;
  mapping : R.Bism.mapping option;
  functional : bool;
}

let lattice_with_defects lattice chip (mapping : R.Bism.mapping) =
  Lt.Lattice.map
    (fun r c site ->
      let pr = mapping.R.Bism.row_map.(r) and pc = mapping.R.Bism.col_map.(c) in
      match R.Defect.kind_at chip pr pc with
      | None -> site
      | Some R.Defect.Stuck_open -> Lt.Lattice.Zero
      | Some (R.Defect.Stuck_closed | R.Defect.Bridge) -> Lt.Lattice.One)
    lattice

module Obs = Nxc_obs

let m_runs = Obs.Metrics.counter "flow.runs"
let m_functional = Obs.Metrics.counter "flow.functional"
let m_infeasible = Obs.Metrics.counter "flow.infeasible"
let m_escalations = Obs.Metrics.counter "flow.escalations"

let no_stats =
  { R.Bism.success = false;
    configurations = 0;
    test_applications = 0;
    diagnoses = 0 }

let add_stats (a : R.Bism.stats) (b : R.Bism.stats) =
  { R.Bism.success = a.success || b.success;
    configurations = a.configurations + b.configurations;
    test_applications = a.test_applications + b.test_applications;
    diagnoses = a.diagnoses + b.diagnoses }

(* A lattice larger than the chip can never be placed: report it as a
   clean non-functional result instead of letting BISM raise. *)
let feasible chip lattice =
  Lt.Lattice.rows lattice <= R.Defect.rows chip
  && Lt.Lattice.cols lattice <= R.Defect.cols chip

let verify_mapping chip lattice func mapping =
  Obs.Span.with_ ~name:"flow.verify" @@ fun () ->
  match mapping with
  | None -> false
  | Some m -> Lt.Checker.equivalent (lattice_with_defects lattice chip m) func

(* Escalation ladder for [run_result]: blind is the cheapest hardware
   scheme, hybrid adds diagnosis after a few retries, greedy diagnoses
   from the start.  Each rung gets a slice of the total configuration
   cap; moving down a rung is a counted degradation. *)
let max_configs = 1000

let ladder =
  let blind = max_configs / 4 and hybrid = max_configs / 4 in
  [ (R.Bism.Blind, blind);
    (R.Bism.Hybrid 10, hybrid);
    (R.Bism.Greedy, max_configs - blind - hybrid) ]

let run_result ?scheme rng ~chip func =
  Obs.Metrics.incr m_runs;
  Obs.Span.with_ ~name:"flow.run"
    ~attrs:(fun () -> [ ("name", Obs.Json.Str (Nxc_logic.Boolfunc.name func)) ])
  @@ fun () ->
  let guard = Guard.Budget.current () in
  match Synth.synthesize_result func with
  | Error e -> Error e
  | Ok impl ->
      let lattice = Synth.best_lattice impl in
      if not (feasible chip lattice) then begin
        Obs.Metrics.incr m_infeasible;
        Ok { impl; bism = no_stats; mapping = None; functional = false }
      end
      else
        let k_rows = Lt.Lattice.rows lattice
        and k_cols = Lt.Lattice.cols lattice in
        let stages =
          match scheme with
          | Some s -> [ (s, max_configs) ]
          | None -> ladder
        in
        let rec attempt acc_stats escalated = function
          | [] -> (acc_stats, None, escalated)
          | (s, cap) :: rest ->
              if escalated then begin
                Obs.Metrics.incr m_escalations;
                Guard.Budget.degrade "flow_escalation"
              end;
              let stats, mapping =
                Obs.Span.with_ ~name:"flow.bism" (fun () ->
                    R.Bism.run rng s ~chip ~k_rows ~k_cols
                      ~max_configs:cap)
              in
              let acc_stats = add_stats acc_stats stats in
              (match mapping with
              | Some _ -> (acc_stats, mapping, escalated)
              | None ->
                  if Guard.Budget.exhausted guard then
                    (acc_stats, None, escalated)
                  else attempt acc_stats true rest)
        in
        let bism, mapping, _ = attempt no_stats false stages in
        if Guard.Budget.exhausted guard && mapping = None
           && Guard.Budget.policy guard = Guard.Budget.Fail
        then Error (Guard.Budget.error guard)
        else begin
          let functional = verify_mapping chip lattice func mapping in
          if functional then Obs.Metrics.incr m_functional;
          Ok { impl; bism; mapping; functional }
        end

(* The total single-scheme flow: [run_result] under a Degrade view of
   the ambient budget, which never reports exhaustion. *)
let run rng ~chip func =
  let degrading = Guard.Budget.degrading (Guard.Budget.current ()) in
  match
    Guard.Budget.with_current degrading (fun () ->
        run_result ~scheme:(R.Bism.Hybrid 10) rng ~chip func)
  with
  | Ok r -> r
  | Error _ -> assert false
