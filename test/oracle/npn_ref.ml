(* Brute-force NPN canonicalization: apply every transform and keep the
   least image.  The reference [Npn.canonical]'s packed-key search must
   reproduce, transform and table alike. *)

open Nxc_logic

(** Every permutation of [0 .. n-1], in lexicographic order. *)
let permutations n =
  let rec go = function
    | [] -> [ [] ]
    | xs ->
        List.concat_map
          (fun x -> List.map (fun p -> x :: p) (go (List.filter (( <> ) x) xs)))
          xs
  in
  List.map Array.of_list (go (List.init n Fun.id))

(** All [2{^(n+1)}·n!] transforms in [Npn]'s enumeration order:
    permutation, then input-negation mask, then output phase. *)
let transforms n =
  Seq.concat_map
    (fun perm ->
      Seq.concat_map
        (fun mask ->
          let input_neg = Array.init n (fun i -> (mask lsr i) land 1 = 1) in
          List.to_seq
            [ { Npn.perm; input_neg; output_neg = false };
              { Npn.perm; input_neg; output_neg = true } ])
        (Seq.init (1 lsl n) Fun.id))
    (List.to_seq (permutations n))

(** The least image under [Truth_table.compare] and the transform that
    reaches it: among the transforms reaching it, the first in
    enumeration order without output negation, else the first. *)
let reference_canonical f =
  let n = Truth_table.n_vars f in
  Seq.fold_left
    (fun ((bt, bg) as best) t ->
      let g = Npn.apply t f in
      let c = Truth_table.compare g bg in
      if c < 0 || (c = 0 && bt.Npn.output_neg && not t.Npn.output_neg) then
        (t, g)
      else best)
    ( { Npn.perm = Array.init n Fun.id; input_neg = Array.make n false;
        output_neg = false },
      f )
    (transforms n)
