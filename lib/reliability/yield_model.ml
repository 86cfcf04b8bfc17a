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

(* One walk down from [n] serves every threshold: a per-threshold walk
   from the same seed draws the same chips at each [k], so it would stop
   at the very [k] this walk records for it.  [0] marks a threshold no
   [k >= 1] has met yet. *)
let guaranteed_ks ?pool rng ~trials ~n ~profile ~min_yields =
  let ys = Array.of_list min_yields in
  let ks = Array.make (Array.length ys) 0 in
  let pending = ref (Array.length ys) and k = ref n in
  while !pending > 0 && !k >= 1 do
    let rate = recovery_rate ?pool rng ~trials ~n ~k:!k ~profile in
    Array.iteri
      (fun i y ->
        if ks.(i) = 0 && rate >= y then begin
          ks.(i) <- !k;
          decr pending
        end)
      ys;
    decr k
  done;
  Array.to_list ks

let guaranteed_k rng ~trials ~n ~profile ~min_yield =
  List.hd (guaranteed_ks rng ~trials ~n ~profile ~min_yields:[ min_yield ])
