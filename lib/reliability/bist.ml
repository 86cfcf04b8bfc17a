module Fm = Fault_model
module Obs = Nxc_obs

let m_plans = Obs.Metrics.counter "bist.plans"
let m_vectors = Obs.Metrics.counter "bist.vectors"
let m_syndromes = Obs.Metrics.counter "bist.syndromes"

type vector_test = { vector : bool array; expected : bool }

type kind =
  | Group of { bit : int; value : bool }
  | Diagonal of { shift : int; batch : int; offset : int }

type test_config = {
  label : string;
  kind : kind;
  config : Fm.config;
  tests : vector_test list;
}

type plan = { rows : int; cols : int; configs : test_config list }

let bits_for n =
  let rec go b = if 1 lsl b >= n then b else go (b + 1) in
  max 1 (go 0)

let all_ones cols = Array.make cols true

let walking_zero cols j = Array.init cols (fun c -> c <> j)

let one_hot cols j = Array.init cols (fun c -> c = j)

let group_configs ~rows ~cols =
  let bits = bits_for rows in
  List.concat_map
    (fun b ->
      List.filter_map
        (fun v ->
          let members =
            List.filter
              (fun i -> (i lsr b) land 1 = Bool.to_int v)
              (List.init rows Fun.id)
          in
          if members = [] then None
          else begin
            let config = Fm.empty_config ~rows ~cols in
            List.iter
              (fun i ->
                config.Fm.observed.(i) <- true;
                for c = 0 to cols - 1 do
                  config.Fm.programmed.(i).(c) <- true
                done)
              members;
            let tests =
              { vector = all_ones cols; expected = true }
              :: List.init cols (fun j ->
                     { vector = walking_zero cols j; expected = false })
            in
            Some
              { label = Printf.sprintf "group b%d=%d" b (Bool.to_int v);
                kind = Group { bit = b; value = v };
                config;
                tests }
          end)
        [ true; false ])
    (List.init bits Fun.id)

let diagonal_configs ~rows ~cols =
  let usable = cols - 1 in
  let rows' = min rows usable in
  let num_batches = (rows + usable - 1) / usable in
  let num_offsets = (usable + rows' - 1) / rows' in
  List.concat_map
    (fun shift ->
      let guard = if shift = 0 then cols - 1 else 0 in
      let base = if shift = 0 then 0 else 1 in
      List.concat_map
        (fun t ->
          List.map
            (fun o ->
              let phi i = base + ((i + (o * rows')) mod usable) in
              let in_batch i = i / usable = t in
              let config = Fm.empty_config ~rows ~cols in
              for i = 0 to rows - 1 do
                if in_batch i then begin
                  config.Fm.programmed.(i).(phi i) <- true;
                  config.Fm.observed.(i) <- true
                end
                else config.Fm.programmed.(i).(guard) <- true
              done;
              let tests =
                List.filter_map
                  (fun i ->
                    if in_batch i then
                      Some { vector = one_hot cols (phi i); expected = true }
                    else None)
                  (List.init rows Fun.id)
              in
              { label = Printf.sprintf "diag s%d t%d o%d" shift t o;
                kind = Diagonal { shift; batch = t; offset = o };
                config;
                tests })
            (List.init num_offsets Fun.id))
        (List.init num_batches Fun.id))
    [ 0; 1 ]

let plan ~rows ~cols =
  if rows < 1 then invalid_arg "Bist.plan: need at least one row";
  if cols < 2 then invalid_arg "Bist.plan: need at least two columns";
  Obs.Metrics.incr m_plans;
  Obs.Span.with_ ~name:"bist.plan"
    ~attrs:(fun () ->
      [ ("rows", Obs.Json.Int rows); ("cols", Obs.Json.Int cols) ])
  @@ fun () ->
  let p =
    { rows;
      cols;
      configs = group_configs ~rows ~cols @ diagonal_configs ~rows ~cols }
  in
  Obs.Metrics.add m_vectors
    (List.fold_left (fun acc tc -> acc + List.length tc.tests) 0 p.configs);
  p

let num_configs p = List.length p.configs

let num_vectors p =
  List.fold_left (fun acc tc -> acc + List.length tc.tests) 0 p.configs

(* ------------------------------------------------------------------ *)
(* Packed plans: the word-parallel hot path.                           *)
(*                                                                     *)
(* [pack] fixes each configuration's vector set into a word-packed     *)
(* [Fm.block] plus expectation words (bit lane = vector index), and    *)
(* asserts plan soundness once — the fault-free kernel run must equal  *)
(* the expectations — instead of once per (fault, vector) visit.  A    *)
(* syndrome then costs one [Fm.eval_block] per configuration; the      *)
(* failing (config, vector) pairs fall out of XOR-ing observed against *)
(* expected words and walking the set bits in ascending lane order,    *)
(* which reproduces the scalar visit order bit for bit.                *)
(* ------------------------------------------------------------------ *)

let m_packs = Obs.Metrics.counter "bist.packs"

type packed_config = {
  pk_cfg : Fm.config;
  pk_block : Fm.block;
  pk_expected : int array;
  pk_words : int;
}

type packed = {
  pk_configs : packed_config array;
  pk_max_words : int;
}

module Bitslice = Nxc_logic.Bitslice

(* per-domain observation buffer so a syndrome sweep never allocates *)
type syn_scratch = { mutable obs : int array }

let syn_key = Domain.DLS.new_key (fun () -> { obs = [||] })

let obs_buffer nw =
  let s = Domain.DLS.get syn_key in
  if Array.length s.obs < nw then s.obs <- Array.make nw 0;
  s.obs

let pack p =
  Obs.Metrics.incr m_packs;
  let pack_config tc =
    let vectors = Array.of_list (List.map (fun t -> t.vector) tc.tests) in
    let block = Fm.pack_vectors ~cols:tc.config.Fm.cols vectors in
    let nw = Fm.block_words block in
    let expected = Array.make (max nw 1) 0 in
    List.iteri
      (fun vi t ->
        if t.expected then
          expected.(vi / Bitslice.word_bits) <-
            expected.(vi / Bitslice.word_bits)
            lor (1 lsl (vi mod Bitslice.word_bits)))
      tc.tests;
    (* the plan itself must be sound on a fault-free array — asserted
       once per pack instead of once per (fault, vector) visit *)
    let obs = obs_buffer (max nw 1) in
    Fm.eval_block ~faults:[] tc.config block ~into:obs;
    for w = 0 to nw - 1 do
      assert (obs.(w) = expected.(w))
    done;
    { pk_cfg = tc.config; pk_block = block; pk_expected = expected;
      pk_words = nw }
  in
  let configs = Array.of_list (List.map pack_config p.configs) in
  { pk_configs = configs;
    pk_max_words =
      Array.fold_left (fun acc pc -> max acc pc.pk_words) 1 configs }

let syndrome_multi_packed pd faults =
  Obs.Metrics.incr m_syndromes;
  let obs = obs_buffer pd.pk_max_words in
  let acc = ref [] in
  Array.iteri
    (fun ci pc ->
      Fm.eval_block ~faults pc.pk_cfg pc.pk_block ~into:obs;
      for w = 0 to pc.pk_words - 1 do
        let diff = obs.(w) lxor pc.pk_expected.(w) in
        if diff <> 0 then
          Bitslice.iter_set diff (fun b ->
              acc := (ci, (w * Bitslice.word_bits) + b) :: !acc)
      done)
    pd.pk_configs;
  List.rev !acc

let syndrome_packed pd fault = syndrome_multi_packed pd [ fault ]

let detects_packed pd fault =
  let obs = obs_buffer pd.pk_max_words in
  let found = ref false in
  (try
     Array.iter
       (fun pc ->
         Fm.eval_block ~faults:[ fault ] pc.pk_cfg pc.pk_block ~into:obs;
         for w = 0 to pc.pk_words - 1 do
           if obs.(w) <> pc.pk_expected.(w) then begin
             found := true;
             raise Exit
           end
         done)
       pd.pk_configs
   with Exit -> ());
  !found

let syndrome p fault = syndrome_packed (pack p) fault

let coverage p faults =
  Obs.Span.with_ ~name:"bist.coverage"
    ~attrs:(fun () -> [ ("faults", Obs.Json.Int (List.length faults)) ])
  @@ fun () ->
  let pd = pack p in
  let undetected = List.filter (fun f -> not (detects_packed pd f)) faults in
  let total = List.length faults in
  if total = 0 then (1.0, [])
  else
    ( float_of_int (total - List.length undetected) /. float_of_int total,
      undetected )

let minimize_vectors p faults =
  (* detection matrix: for every fault, the (config, vector) pairs that
     catch it *)
  let pd = pack p in
  let detecting = List.map (fun f -> (f, syndrome_packed pd f)) faults in
  let detectable = List.filter (fun (_, s) -> s <> []) detecting in
  let kept = Hashtbl.create 64 in
  let remaining = ref detectable in
  while !remaining <> [] do
    (* count, per vector, how many remaining faults it catches *)
    let tally = Hashtbl.create 64 in
    List.iter
      (fun (_, s) ->
        List.iter
          (fun key ->
            Hashtbl.replace tally key
              (1 + Option.value ~default:0 (Hashtbl.find_opt tally key)))
          s)
      !remaining;
    let best_key, _ =
      Hashtbl.fold
        (fun key count (bk, bc) -> if count > bc then (key, count) else (bk, bc))
        tally
        ((-1, -1), 0)
    in
    Hashtbl.replace kept best_key ();
    remaining := List.filter (fun (_, s) -> not (List.mem best_key s)) !remaining
  done;
  let before = num_vectors p in
  let configs =
    List.concat
      (List.mapi
         (fun ci tc ->
           let tests =
             List.concat
               (List.mapi
                  (fun vi t -> if Hashtbl.mem kept (ci, vi) then [ t ] else [])
                  tc.tests)
           in
           if tests = [] then [] else [ { tc with tests } ])
         p.configs)
  in
  let p' = { p with configs } in
  (p', before - num_vectors p')

let application_universe (cfg : Fm.config) =
  let used_rows = Array.make cfg.Fm.rows false in
  let used_cols = Array.make cfg.Fm.cols false in
  Array.iteri
    (fun r row ->
      if cfg.Fm.observed.(r) then used_rows.(r) <- true;
      Array.iteri
        (fun c programmed ->
          if programmed then begin
            used_rows.(r) <- true;
            used_cols.(c) <- true
          end)
        row)
    cfg.Fm.programmed;
  let touches = function
    | Fm.Xpoint_stuck_open (r, c) | Fm.Xpoint_stuck_closed (r, c) ->
        used_rows.(r) && used_cols.(c)
    | Fm.Row_stuck (r, _) | Fm.Output_open r -> used_rows.(r)
    | Fm.Col_stuck (c, _) -> used_cols.(c)
    | Fm.Bridge_rows r -> used_rows.(r) || used_rows.(r + 1)
    | Fm.Bridge_cols c -> used_cols.(c) || used_cols.(c + 1)
  in
  List.filter touches (Fm.universe ~rows:cfg.Fm.rows ~cols:cfg.Fm.cols)
