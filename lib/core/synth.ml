module L = Nxc_logic
module X = Nxc_crossbar
module Lt = Nxc_lattice
module Obs = Nxc_obs
module Guard = Nxc_guard

let m_functions = Obs.Metrics.counter "synth.functions"
let m_verifications = Obs.Metrics.counter "synth.verifications"
let m_degraded = Obs.Metrics.counter "synth.degraded"

type t = {
  func : L.Boolfunc.t;
  products : int;
  dual_products : int;
  distinct_literals : int;
  diode : X.Diode.t option;
  fet : X.Fet.t option;
  ar_lattice : Lt.Lattice.t;
  dec_lattice : Lt.Lattice.t;
  dred_lattice : Lt.Lattice.t option;
  degraded : bool;
}

let synthesize ?(decompose = true) func =
  let guard = Guard.Budget.current () in
  let alive_before = Guard.Budget.alive guard in
  Obs.Metrics.incr m_functions;
  Obs.Span.with_ ~name:"synth.synthesize"
    ~attrs:(fun () ->
      [ ("name", Obs.Json.Str (L.Boolfunc.name func));
        ("n", Obs.Json.Int (L.Boolfunc.n_vars func)) ])
  @@ fun () ->
  (* the whole pipeline below (including the internal [Minimize.sop]
     calls of the lattice synthesizers) charges the ambient budget; a
     Degrade view of it keeps every internal step total *)
  Guard.Budget.with_current (Guard.Budget.degrading guard) @@ fun () ->
  let n = L.Boolfunc.n_vars func in
  let constant = L.Boolfunc.is_const func <> None in
  let f_cover =
    Obs.Span.with_ ~name:"synth.sop" (fun () -> L.Minimize.sop func)
  in
  let dual_cover =
    Obs.Span.with_ ~name:"synth.dual_sop" (fun () -> L.Minimize.dual_sop func)
  in
  (* the lattice of the covers just minimized: the one
     [Altun_riedel.synthesize] would minimize again to build *)
  let ar_lattice =
    Obs.Span.with_ ~name:"synth.ar_lattice" (fun () ->
        if constant then Lt.Altun_riedel.synthesize func
        else Lt.Altun_riedel.synthesize_from_covers ~n ~f_cover ~dual_cover)
  in
  let dec_lattice =
    if decompose && not constant then
      Obs.Span.with_ ~name:"synth.decompose" (fun () ->
          let dec = Lt.Decompose_synth.synthesize func in
          if Lt.Lattice.area dec < Lt.Lattice.area ar_lattice then dec
          else ar_lattice)
    else ar_lattice
  in
  { func;
    products = L.Cover.num_cubes f_cover;
    dual_products = L.Cover.num_cubes dual_cover;
    distinct_literals = List.length (L.Cover.distinct_literals f_cover);
    diode = (if constant then None else Some (X.Diode.of_cover f_cover));
    fet =
      (if constant then None
       else
         Some
           (X.Fet.of_covers ~n ~f_cover ~dual_cover));
    ar_lattice;
    dec_lattice;
    dred_lattice =
      (if constant then None
       else
         Obs.Span.with_ ~name:"synth.dred" (fun () ->
             Lt.Dred_synth.synthesize func));
    degraded =
      (let d = alive_before && Guard.Budget.exhausted guard in
       if d then Obs.Metrics.incr m_degraded;
       d) }

let synthesize_result func =
  let guard = Guard.Budget.current () in
  let impl = synthesize func in
  match Guard.Budget.policy guard with
  | Guard.Budget.Fail when impl.degraded -> Error (Guard.Budget.error guard)
  | _ -> Ok impl

let verify impl =
  Obs.Metrics.incr m_verifications;
  Obs.Span.with_ ~name:"synth.verify" @@ fun () ->
  let f = impl.func in
  let n = L.Boolfunc.n_vars f in
  let check_fun g =
    let rec go m = m >= 1 lsl n || (g m = L.Boolfunc.eval_int f m && go (m + 1)) in
    go 0
  in
  (match impl.diode with
  | None -> true
  | Some d -> check_fun (X.Diode.eval_int d))
  && (match impl.fet with
     | None -> true
     | Some x -> check_fun (X.Fet.eval_int x))
  && Lt.Checker.equivalent impl.ar_lattice f
  && Lt.Checker.equivalent impl.dec_lattice f
  && match impl.dred_lattice with
     | None -> true
     | Some l -> Lt.Checker.equivalent l f

type sizes = {
  name : string;
  n_vars : int;
  diode_size : (int * int) option;
  fet_size : (int * int) option;
  ar_size : int * int;
  dec_size : int * int;
  dred_size : (int * int) option;
  best_lattice_area : int;
}

let lattice_dims l = (Lt.Lattice.rows l, Lt.Lattice.cols l)

let best_lattice impl =
  let candidates =
    impl.ar_lattice :: impl.dec_lattice
    :: (match impl.dred_lattice with None -> [] | Some l -> [ l ])
  in
  List.fold_left
    (fun best l ->
      if Lt.Lattice.area l < Lt.Lattice.area best then l else best)
    (List.hd candidates) (List.tl candidates)

let sizes impl =
  let dims_of_model d = (d.X.Model.rows, d.X.Model.cols) in
  { name = L.Boolfunc.name impl.func;
    n_vars = L.Boolfunc.n_vars impl.func;
    diode_size =
      Option.map (fun d -> dims_of_model (X.Diode.dims d)) impl.diode;
    fet_size = Option.map (fun x -> dims_of_model (X.Fet.dims x)) impl.fet;
    ar_size = lattice_dims impl.ar_lattice;
    dec_size = lattice_dims impl.dec_lattice;
    dred_size = Option.map lattice_dims impl.dred_lattice;
    best_lattice_area = Lt.Lattice.area (best_lattice impl) }

type choice =
  | Use_diode of X.Diode.t
  | Use_fet of X.Fet.t
  | Use_lattice of Lt.Lattice.t

let lattice_report lattice =
  let rows = Lt.Lattice.rows lattice and cols = Lt.Lattice.cols lattice in
  let programmed = ref 0 in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      match Lt.Lattice.site lattice r c with
      | Lt.Lattice.Zero -> ()
      | Lt.Lattice.One | Lt.Lattice.Lit _ -> incr programmed
    done
  done;
  X.Metrics.of_dims ~tech:X.Model.lattice_tech ~impl:"lattice"
    ~programmed:!programmed ~path_length:rows
    { X.Model.rows; cols }

let select impl =
  let lattice = best_lattice impl in
  let candidates =
    (Use_lattice lattice, lattice_report lattice)
    :: (match impl.diode with
       | Some d -> [ (Use_diode d, X.Metrics.diode d) ]
       | None -> [])
    @ (match impl.fet with
      | Some f -> [ (Use_fet f, X.Metrics.fet f) ]
      | None -> [])
  in
  List.fold_left
    (fun ((_, br) as best) ((_, r) as cand) ->
      if r.X.Metrics.area_nm2 < br.X.Metrics.area_nm2 then cand else best)
    (List.hd candidates) (List.tl candidates)
