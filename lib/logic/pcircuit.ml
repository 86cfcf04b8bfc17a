module Tt = Truth_table

type t = {
  var : int;
  pol : bool;
  f_eq : Tt.t;
  f_neq : Tt.t;
  f_int : Tt.t;
}

let decompose ~var ~pol f =
  let tt = Boolfunc.table f in
  let n = Tt.n_vars tt in
  if var < 0 || var >= n then invalid_arg "Pcircuit.decompose: var out of range";
  let proj_eq = Tt.cofactor tt var pol in
  let proj_neq = Tt.cofactor tt var (not pol) in
  let inter = Tt.band proj_eq proj_neq in
  { var;
    pol;
    f_eq = Tt.bsub proj_eq inter;
    f_neq = Tt.bsub proj_neq inter;
    f_int = inter }
