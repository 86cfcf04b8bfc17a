(* Shared helpers and QCheck generators for the test suites. *)

module Tt = Nxc_logic.Truth_table
module Cube = Nxc_logic.Cube
module Cover = Nxc_logic.Cover

(* fixed randomness: property failures must reproduce across runs *)
let qtest ?(count = 200) name arb prop =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 0x5eed; String.length name |])
    (QCheck.Test.make ~count ~name arb prop)

(* deterministic random truth table generator over [n] variables *)
let gen_table n =
  QCheck.Gen.map (fun seed -> Tt.random n ~seed) QCheck.Gen.nat

let arb_table n =
  QCheck.make ~print:(Format.asprintf "%a" Tt.pp) (gen_table n)

(* a table whose arity itself varies in [0, max_n] *)
let gen_table_sized max_n =
  QCheck.Gen.(int_range 0 max_n >>= fun n -> gen_table n)

let arb_table_sized max_n =
  QCheck.make ~print:(Format.asprintf "%a" Tt.pp) (gen_table_sized max_n)

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

let arb_cube n = QCheck.make ~print:Cube.to_string (gen_cube n)

let gen_cover n =
  QCheck.Gen.(
    map (fun cubes -> Cover.make n cubes) (list_size (int_range 0 6) (gen_cube n)))

let arb_cover n = QCheck.make ~print:Cover.to_string (gen_cover n)

(* exhaustive semantic equality between two [int -> bool] functions *)
let same_function n f g =
  let rec go m = m >= 1 lsl n || (f m = g m && go (m + 1)) in
  go 0
