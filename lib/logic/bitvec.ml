(* Packed bit vectors on native-int words.  Layout and the normalization
   invariant (tail bits above [len] kept zero) come from Bitslice. *)

type t = { len : int; words : int array }

let word_bits = Bitslice.word_bits

let normalize v =
  let nw = Array.length v.words in
  if nw > 0 then
    v.words.(nw - 1) <- v.words.(nw - 1) land Bitslice.tail_mask v.len;
  v

let create len init =
  if len < 0 then invalid_arg "Bitvec.create";
  normalize
    { len; words = Array.make (Bitslice.words_for len) (if init then -1 else 0) }

let of_words len ws =
  if len < 0 || Array.length ws <> Bitslice.words_for len then
    invalid_arg "Bitvec.of_words";
  normalize { len; words = Array.copy ws }

let length v = v.len

let check v i =
  if i < 0 || i >= v.len then invalid_arg "Bitvec: index out of range"

let get v i =
  check v i;
  (Array.unsafe_get v.words (i / word_bits) lsr (i mod word_bits)) land 1 <> 0

let set v i b =
  check v i;
  let w = i / word_bits and bit = 1 lsl (i mod word_bits) in
  let old = Array.unsafe_get v.words w in
  Array.unsafe_set v.words w (if b then old lor bit else old land lnot bit)

let copy v = { v with words = Array.copy v.words }

let equal a b =
  a.len = b.len
  &&
  let rec eq i = i < 0 || (a.words.(i) = b.words.(i) && eq (i - 1)) in
  eq (Array.length a.words - 1)

let popcount v =
  let acc = ref 0 in
  for i = 0 to Array.length v.words - 1 do
    acc := !acc + Bitslice.popcount (Array.unsafe_get v.words i)
  done;
  !acc

let is_all b v = popcount v = if b then v.len else 0

let init len f =
  let v = create len false in
  let nw = Array.length v.words in
  for w = 0 to nw - 1 do
    let base = w * word_bits in
    let hi = min word_bits (len - base) in
    let word = ref 0 in
    for b = 0 to hi - 1 do
      if f (base + b) then word := !word lor (1 lsl b)
    done;
    v.words.(w) <- !word
  done;
  v

(* Visit set bits only: peel each word's lowest set bit until empty, so
   sparse vectors cost O(words + set bits) rather than O(len). *)
let fold_true f v acc =
  let acc = ref acc in
  for w = 0 to Array.length v.words - 1 do
    let word = ref v.words.(w) in
    let base = w * word_bits in
    while !word <> 0 do
      let low = !word land - !word in
      acc := f (base + Bitslice.popcount (low - 1)) !acc;
      word := !word lxor low
    done
  done;
  !acc

let first_diff a b =
  if a.len <> b.len then invalid_arg "Bitvec: length mismatch";
  let rec go w =
    if w >= Array.length a.words then None
    else
      let d = a.words.(w) lxor b.words.(w) in
      if d = 0 then go (w + 1)
      else Some ((w * word_bits) + Bitslice.lowest_set d)
  in
  go 0

let word_op f a b =
  if a.len <> b.len then invalid_arg "Bitvec: length mismatch";
  let n = Array.length a.words in
  let words = Array.make n 0 in
  for i = 0 to n - 1 do
    Array.unsafe_set words i
      (f (Array.unsafe_get a.words i) (Array.unsafe_get b.words i))
  done;
  normalize { len = a.len; words }

let lnot v =
  normalize { len = v.len; words = Array.map Stdlib.lnot v.words }

let land_ = word_op ( land )
let lor_ = word_op ( lor )
