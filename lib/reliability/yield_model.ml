module Obs = Nxc_obs

let m_trials = Obs.Metrics.counter "montecarlo.trials"

let chips ?pool rng ~trials ~n ~profile f =
  Obs.Metrics.add m_trials trials;
  Obs.Span.with_ ~name:"montecarlo.chips"
    ~attrs:(fun () ->
      [ ("trials", Obs.Json.Int trials); ("n", Obs.Json.Int n) ])
  @@ fun () ->
  let outs =
    Rng.map_trials ?pool rng ~trials (fun r ->
        f (Defect.generate r ~rows:n ~cols:n profile))
  in
  let hits = Array.fold_left (fun a (h, _) -> if h then a + 1 else a) 0 outs in
  let acc = Array.fold_left (fun a (_, v) -> a +. v) 0.0 outs in
  (float_of_int hits /. float_of_int trials, acc /. float_of_int trials)

let recovery_rate ?pool rng ~trials ~n ~k ~profile =
  if trials <= 0 then invalid_arg "Yield_model.recovery_rate";
  fst
    (chips ?pool rng ~trials ~n ~profile (fun chip ->
         (Defect_flow.extract chip ~k <> None, 0.0)))

let expected_max_k ?pool rng ~trials ~n ~profile =
  if trials <= 0 then invalid_arg "Yield_model.expected_max_k";
  snd
    (chips ?pool rng ~trials ~n ~profile (fun chip ->
         ( false,
           float_of_int (Defect_flow.recovered_k (Defect_flow.greedy_max chip)) )))

let guaranteed_k ?pool rng ~trials ~n ~profile ~min_yield =
  let rec search k =
    if k < 1 then 0
    else if recovery_rate ?pool rng ~trials ~n ~k ~profile >= min_yield then k
    else search (k - 1)
  in
  search n
