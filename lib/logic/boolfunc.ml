type t = { name : string; tt : Truth_table.t }

let make ?(name = "f") tt = { name; tt }
let of_fun_int ?name n f = make ?name (Truth_table.of_fun_int n f)
let of_cover ?name c = make ?name (Truth_table.of_cover c)

let name f = f.name
let with_name name f = { f with name }
let n_vars f = Truth_table.n_vars f.tt
let table f = f.tt
let eval_int f = Truth_table.eval_int f.tt

let dual f = { name = f.name ^ "^D"; tt = Truth_table.dual f.tt }
let is_const f = Truth_table.is_const f.tt
