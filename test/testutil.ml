(* Shared helpers and QCheck generators for the test suites. *)

module Tt = Nxc_logic.Truth_table
module Cube = Nxc_logic.Cube
module Cover = Nxc_logic.Cover

(* fixed randomness: property failures must reproduce across runs *)
let qtest ?(count = 200) name arb prop =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 0x5eed; String.length name |])
    (QCheck.Test.make ~count ~name arb prop)

(* a table printed as "tt<n>:<bits>", minterm 0 first *)
let pp_table ppf f =
  Format.fprintf ppf "tt%d:%s" (Tt.n_vars f)
    (String.init (Tt.size f) (fun m -> if Tt.eval_int f m then '1' else '0'))

let cube_to_string = Format.asprintf "%a" Cube.pp

(* the projection x_(v+1) and the constants, over [n] variables *)
let tt_var n v = Tt.of_fun_int n (fun m -> m land (1 lsl v) <> 0)
let tt_const n b = Tt.of_fun_int n (fun _ -> b)

(* the satisfying assignments of a cube, ascending *)
let cube_minterms c =
  List.filter (Cube.eval_int c) (List.init (1 lsl Cube.n_vars c) Fun.id)

(* the disjunction / conjunction of two functions of one arity *)
let bf_or f g =
  Nxc_logic.Boolfunc.(make (Tt.bor (table f) (table g)))

let bf_and f g =
  Nxc_logic.Boolfunc.(make (Tt.band (table f) (table g)))

(* deterministic random truth table generator over [n] variables *)
let gen_table n =
  QCheck.Gen.map
    (fun seed -> Nxc_oracle.Logic_ref.random_table n ~seed)
    QCheck.Gen.nat

let arb_table n =
  QCheck.make ~print:(Format.asprintf "%a" pp_table) (gen_table n)

(* a table whose arity itself varies in [0, max_n] *)
let gen_table_sized max_n =
  QCheck.Gen.(int_range 0 max_n >>= fun n -> gen_table n)

let arb_table_sized max_n =
  QCheck.make ~print:(Format.asprintf "%a" pp_table) (gen_table_sized max_n)

let gen_polarity = QCheck.Gen.map (fun b -> if b then Cube.Pos else Cube.Neg) QCheck.Gen.bool

let gen_cube n =
  QCheck.Gen.(
    list_size (int_range 0 n) (pair (int_range 0 (max 0 (n - 1))) gen_polarity)
    >>= fun lits ->
    (* keep the first binding per variable; drop conflicting duplicates *)
    let seen = Hashtbl.create 8 in
    let lits =
      List.filter
        (fun (v, _) ->
          if Hashtbl.mem seen v then false
          else begin
            Hashtbl.add seen v ();
            true
          end)
        lits
    in
    return (Cube.of_literals n lits))

let arb_cube n = QCheck.make ~print:cube_to_string (gen_cube n)

let gen_cover n =
  QCheck.Gen.(
    map (fun cubes -> Cover.make n cubes) (list_size (int_range 0 6) (gen_cube n)))

let arb_cover n = QCheck.make ~print:Cover.to_string (gen_cover n)

(* exhaustive semantic equality between two [int -> bool] functions *)
let same_function n f g =
  let rec go m = m >= 1 lsl n || (f m = g m && go (m + 1)) in
  go 0
