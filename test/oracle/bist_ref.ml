(* Scalar BIST syndrome: the per-vector reference for the word-packed
   [Bist] kernels. *)

open Nxc_reliability
module Fm = Fault_model

(** Failing [(configuration index, vector index)] pairs of an array
    carrying [faults] at once, in ascending order.  Every
    (configuration, vector) visit re-asserts that the plan is sound on
    a fault-free array and then runs one faulty evaluation, so a
    syndrome costs two scalar [Fault_model] evaluations per vector. *)
let syndrome_scalar (p : Bist.plan) faults =
  let acc = ref [] in
  List.iteri
    (fun ci (tc : Bist.test_config) ->
      List.iteri
        (fun vi (t : Bist.vector_test) ->
          assert (Fm.eval tc.config t.vector = t.expected);
          if Fm.eval_multi ~faults tc.config t.vector <> t.expected then
            acc := (ci, vi) :: !acc)
        tc.tests)
    p.configs;
  List.rev !acc
