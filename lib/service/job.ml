(* JSON job specs: strict field-checked parsing, canonical
   re-serialization used as the cache key for seeded simulations. *)

module J = Nxc_obs.Json
module Error = Nxc_guard.Error

type spec =
  | Synth of { expr : string; cover_backend : string }
  | Flow of { expr : string; n : int; density : float; seed : int }
  | Bist of { rows : int; cols : int }
  | Bism of {
      n : int;
      k : int;
      density : float;
      seed : int;
      trials : int;
      scheme : string;
    }
  | Yield of { n : int; density : float; seed : int; trials : int }
  | Repair of {
      rows : int;
      cols : int;
      spare_rows : int;
      spare_cols : int;
      density : float;
      seed : int;
      trials : int;
      mode : string;
    }

type t = { id : string option; budget_steps : int option; spec : spec }

let kind t =
  match t.spec with
  | Synth _ -> "synth"
  | Flow _ -> "flow"
  | Bist _ -> "bist"
  | Bism _ -> "bism"
  | Yield _ -> "yield"
  | Repair _ -> "repair"

(* ------------------------------------------------------------------ *)
(* parsing                                                             *)
(* ------------------------------------------------------------------ *)

exception Bad of Error.t

let bad fmt = Format.kasprintf (fun s -> raise (Bad (Error.invalid_input s))) fmt

let fields = function
  | J.Obj kvs -> kvs
  | _ -> bad "job spec: expected a JSON object"

let get kvs key = List.assoc_opt key kvs

let str kvs key =
  match get kvs key with
  | Some (J.Str s) -> s
  | Some _ -> bad "job spec: %S must be a string" key
  | None -> bad "job spec: missing required field %S" key

let int_opt kvs key =
  match get kvs key with
  | Some (J.Int i) -> Some i
  | Some _ -> bad "job spec: %S must be an integer" key
  | None -> None

let int_d kvs key default = Option.value ~default (int_opt kvs key)

let pos_int_d kvs key default =
  let v = int_d kvs key default in
  if v <= 0 then bad "job spec: %S must be positive" key;
  v

(* Bounds on the fabricated arrays and the trial count, so that one job
   line cannot exhaust memory; job.mli gives the measurements behind
   them. *)
let max_side = 256
let max_bist_side = 64
let max_trials = 100_000

let at_most max key v =
  if v > max then bad "job spec: %S must be at most %d" key max;
  v

let nonneg_int_d kvs key default =
  let v = int_d kvs key default in
  if v < 0 then bad "job spec: %S must be non-negative" key;
  v

let float_d kvs key default =
  match get kvs key with
  | Some (J.Float f) -> f
  | Some (J.Int i) -> float_of_int i
  | Some _ -> bad "job spec: %S must be a number" key
  | None -> default

let density_d kvs key default =
  let v = float_d kvs key default in
  if v < 0.0 || v > 1.0 then bad "job spec: %S must be in [0, 1]" key;
  v

let one_of kvs key ~default allowed ~what =
  match get kvs key with
  | None -> default
  | Some (J.Str s) when List.mem s allowed -> s
  | Some (J.Str s) -> bad "job spec: unknown %s %S" what s
  | Some _ -> bad "job spec: %S must be a string" key

let cover_backends = [ "bnb"; "sat" ]
let schemes = [ "blind"; "greedy"; "hybrid"; "sat" ]
let repair_modes = [ "exact"; "greedy" ]

let check_known kvs allowed =
  List.iter
    (fun (k, _) ->
      if not (List.mem k allowed) then bad "job spec: unknown field %S" k)
    kvs

let common = [ "kind"; "id"; "budget_steps" ]

let of_json json =
  try
    let kvs = fields json in
    let id =
      match get kvs "id" with
      | Some (J.Str s) -> Some s
      | Some _ -> bad "job spec: \"id\" must be a string"
      | None -> None
    in
    let budget_steps =
      match int_opt kvs "budget_steps" with
      | Some b when b <= 0 -> bad "job spec: \"budget_steps\" must be positive"
      | b -> b
    in
    let spec =
      match str kvs "kind" with
      | "synth" ->
          check_known kvs ("expr" :: "cover_backend" :: common);
          let cover_backend =
            one_of kvs "cover_backend" ~default:"bnb" cover_backends
              ~what:"cover backend"
          in
          Synth { expr = str kvs "expr"; cover_backend }
      | "flow" ->
          check_known kvs ("expr" :: "n" :: "density" :: "seed" :: common);
          Flow
            { expr = str kvs "expr";
              n = at_most max_side "n" (pos_int_d kvs "n" 24);
              density = density_d kvs "density" 0.05;
              seed = int_d kvs "seed" 42 }
      | "bist" ->
          check_known kvs ("rows" :: "cols" :: common);
          let rows = at_most max_bist_side "rows" (pos_int_d kvs "rows" 8) in
          let cols = at_most max_bist_side "cols" (pos_int_d kvs "cols" 8) in
          Bist { rows; cols }
      | "bism" ->
          check_known kvs
            ("n" :: "k" :: "density" :: "seed" :: "trials" :: "scheme"
            :: common);
          let scheme =
            one_of kvs "scheme" ~default:"hybrid" schemes ~what:"scheme"
          in
          Bism
            { n = at_most max_side "n" (pos_int_d kvs "n" 32);
              k = pos_int_d kvs "k" 12;
              density = density_d kvs "density" 0.05;
              seed = int_d kvs "seed" 42;
              trials = at_most max_trials "trials" (pos_int_d kvs "trials" 20);
              scheme }
      | "yield" ->
          check_known kvs ("n" :: "density" :: "seed" :: "trials" :: common);
          Yield
            { n = at_most max_side "n" (pos_int_d kvs "n" 32);
              density = density_d kvs "density" 0.05;
              seed = int_d kvs "seed" 1;
              trials = at_most max_trials "trials" (pos_int_d kvs "trials" 40) }
      | "repair" ->
          check_known kvs
            ("rows" :: "cols" :: "spare_rows" :: "spare_cols" :: "density"
            :: "seed" :: "trials" :: "mode" :: common);
          let mode =
            one_of kvs "mode" ~default:"exact" repair_modes ~what:"repair mode"
          in
          Repair
            { rows = pos_int_d kvs "rows" 12; cols = pos_int_d kvs "cols" 12;
              spare_rows = nonneg_int_d kvs "spare_rows" 2;
              spare_cols = nonneg_int_d kvs "spare_cols" 2;
              density = density_d kvs "density" 0.05;
              seed = int_d kvs "seed" 42;
              trials = at_most max_trials "trials" (pos_int_d kvs "trials" 20);
              mode }
      | k ->
          bad
            "job spec: unknown kind %S (have: synth, flow, bist, bism, yield, \
             repair)"
            k
    in
    (* checks across fields, after every field passed its own *)
    (match spec with
    | Bist { cols; _ } when cols < 2 ->
        bad "job spec: \"cols\" must be at least 2"
    | Bism { n; k; _ } when k > n -> bad "job spec: \"k\" must not exceed \"n\""
    (* written so that no huge spare count can overflow the sum *)
    | Repair { rows; spare_rows; _ } when spare_rows > max_side - rows ->
        bad "job spec: \"rows\" + \"spare_rows\" must be at most %d" max_side
    | Repair { cols; spare_cols; _ } when spare_cols > max_side - cols ->
        bad "job spec: \"cols\" + \"spare_cols\" must be at most %d" max_side
    | _ -> ());
    Ok { id; budget_steps; spec }
  with Bad e -> Error e

let of_line line =
  match J.of_string line with
  | exception J.Parse_error msg ->
      Error (Error.invalid_input (Printf.sprintf "job spec: %s" msg))
  | json -> of_json json

(* ------------------------------------------------------------------ *)
(* canonical serialization                                             *)
(* ------------------------------------------------------------------ *)

let spec_fields = function
  | Synth { expr; cover_backend } ->
      (* [cover_backend] is emitted only when non-default so the cache
         keys of pre-existing synth jobs are unchanged. *)
      ("kind", J.Str "synth") :: ("expr", J.Str expr)
      :: (if cover_backend = "bnb" then []
          else [ ("cover_backend", J.Str cover_backend) ])
  | Flow { expr; n; density; seed } ->
      [ ("kind", J.Str "flow"); ("expr", J.Str expr); ("n", J.Int n);
        ("density", J.Float density); ("seed", J.Int seed) ]
  | Bist { rows; cols } ->
      [ ("kind", J.Str "bist"); ("rows", J.Int rows); ("cols", J.Int cols) ]
  | Bism { n; k; density; seed; trials; scheme } ->
      [ ("kind", J.Str "bism"); ("n", J.Int n); ("k", J.Int k);
        ("density", J.Float density); ("seed", J.Int seed);
        ("trials", J.Int trials); ("scheme", J.Str scheme) ]
  | Yield { n; density; seed; trials } ->
      [ ("kind", J.Str "yield"); ("n", J.Int n); ("density", J.Float density);
        ("seed", J.Int seed); ("trials", J.Int trials) ]
  | Repair { rows; cols; spare_rows; spare_cols; density; seed; trials; mode }
    ->
      [ ("kind", J.Str "repair"); ("rows", J.Int rows); ("cols", J.Int cols);
        ("spare_rows", J.Int spare_rows); ("spare_cols", J.Int spare_cols);
        ("density", J.Float density); ("seed", J.Int seed);
        ("trials", J.Int trials); ("mode", J.Str mode) ]

let budget_field t =
  match t.budget_steps with
  | Some b -> [ ("budget_steps", J.Int b) ]
  | None -> []

let to_json t =
  let id = match t.id with Some i -> [ ("id", J.Str i) ] | None -> [] in
  J.Obj (id @ spec_fields t.spec @ budget_field t)

let cache_key t =
  "job:" ^ J.to_string (J.Obj (spec_fields t.spec @ budget_field t))
