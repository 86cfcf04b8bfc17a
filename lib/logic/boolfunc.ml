type t = { name : string; tt : Truth_table.t }

let make ?(name = "f") tt = { name; tt }
let of_fun_int ?name n f = make ?name (Truth_table.of_fun_int n f)
let of_cover ?name c = make ?name (Truth_table.of_cover c)

let name f = f.name
let with_name name f = { f with name }
let n_vars f = Truth_table.n_vars f.tt
let table f = f.tt
let eval_int f = Truth_table.eval_int f.tt
let equal a b = Truth_table.equal a.tt b.tt

let dual f = { name = f.name ^ "^D"; tt = Truth_table.dual f.tt }
let complement f = { name = f.name ^ "'"; tt = Truth_table.bnot f.tt }
let is_const f = Truth_table.is_const f.tt

let lift2 op suffix a b =
  if n_vars a <> n_vars b then invalid_arg "Boolfunc: arity mismatch";
  { name = Printf.sprintf "(%s%s%s)" a.name suffix b.name;
    tt = op a.tt b.tt }

let band = lift2 Truth_table.band "*"
let bor = lift2 Truth_table.bor "+"
let bxor = lift2 Truth_table.bxor "^"
