module Obs = Nxc_obs
module Guard = Nxc_guard

let m_sop_calls = Obs.Metrics.counter "minimize.sop_calls"
let m_degraded = Obs.Metrics.counter "minimize.degraded"

type outcome = { cover : Cover.t; degraded : bool }

(* The guarded core.  Every path either returns a function-equivalent
   cover or a typed error; the [degraded] flag records that ISOP stood
   in for an exact minimization that ran out of budget. *)
let sop_table_with ?cover_backend tt =
  let guard = Guard.Budget.current () in
  Obs.Metrics.incr m_sop_calls;
  Obs.Span.with_ ~name:"minimize.sop"
    ~attrs:(fun () -> [ ("n", Obs.Json.Int (Truth_table.n_vars tt)) ])
  @@ fun () ->
  let n = Truth_table.n_vars tt in
  let heuristic () = Isop.isop tt in
  (* Exact QM, degrading to ISOP when the guard trips during prime
     generation (the exponential part).  Under a [Fail] policy the trip
     is reported instead. *)
  let result =
    if n > Qm.max_vars then Ok { cover = heuristic (); degraded = false }
    else
      match
        Qm.minimize_result ?cover_backend ~n (Truth_table.minterms tt)
      with
      | Ok (cover, _) -> Ok { cover; degraded = false }
      | Error e -> (
          match Guard.Budget.policy guard with
          | Guard.Budget.Fail -> Error e
          | Guard.Budget.Degrade ->
              Guard.Budget.degrade "qm_to_isop";
              Obs.Metrics.incr m_degraded;
              Ok { cover = heuristic (); degraded = true })
  in
  match result with
  | Error _ as e -> e
  | Ok r ->
      assert (Truth_table.equal (Truth_table.of_cover r.cover) tt);
      Ok r

let sop_result ?cover_backend f =
  sop_table_with ?cover_backend (Boolfunc.table f)

(* Total variants: never fail on budget — force the degradation path
   regardless of the budget's policy by running the core under a
   [Degrade] view of the same budget. *)
let sop_table tt =
  let degrading = Guard.Budget.degrading (Guard.Budget.current ()) in
  match Guard.Budget.with_current degrading (fun () -> sop_table_with tt) with
  | Ok { cover; _ } -> cover
  | Error _ ->
      (* unreachable: under Degrade every budget path falls back *)
      Isop.isop tt

let sop f = sop_table (Boolfunc.table f)

let dual_sop f = sop (Boolfunc.dual f)

let verify cover f =
  Truth_table.equal (Truth_table.of_cover cover) (Boolfunc.table f)
