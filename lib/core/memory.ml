module R = Nxc_reliability

type t = {
  words : int;
  width : int;
  chip : R.Defect.t;
  row_map : int array;  (* logical word -> physical row *)
  cells : bool array array;  (* physical storage *)
}

let row_defective chip ~width r =
  let rec go c =
    c < width && (R.Defect.is_defective chip r c || go (c + 1))
  in
  go 0

let create ?chip ~words ~width ~spares () =
  if words <= 0 || width <= 0 || spares < 0 then invalid_arg "Memory.create";
  let rows = words + spares in
  let chip =
    match chip with
    | None -> R.Defect.perfect ~rows ~cols:width
    | Some c ->
        if R.Defect.rows c < rows || R.Defect.cols c < width then
          invalid_arg "Memory.create: chip too small";
        c
  in
  let good =
    List.filter
      (fun r -> not (row_defective chip ~width r))
      (List.init rows Fun.id)
  in
  if List.length good < words then
    invalid_arg "Memory.create: not enough functional rows";
  { words;
    width;
    chip;
    row_map = Array.of_list (List.filteri (fun i _ -> i < words) good);
    cells = Array.make_matrix rows width false }

let repaired_rows t =
  (* logical rows whose physical row differs from the identity mapping *)
  let n = ref 0 in
  Array.iteri (fun logical physical -> if logical <> physical then incr n) t.row_map;
  !n

let check_addr t addr =
  if addr < 0 || addr >= t.words then invalid_arg "Memory: address out of range"

let effective t r c stored =
  match R.Defect.kind_at t.chip r c with
  | None -> stored
  | Some R.Defect.Stuck_open -> false
  | Some (R.Defect.Stuck_closed | R.Defect.Bridge) -> true

let write t ~addr data =
  check_addr t addr;
  if Array.length data <> t.width then invalid_arg "Memory.write: word width";
  let r = t.row_map.(addr) in
  Array.iteri (fun c b -> t.cells.(r).(c) <- b) data

let read t ~addr =
  check_addr t addr;
  let r = t.row_map.(addr) in
  Array.init t.width (fun c -> effective t r c t.cells.(r).(c))

let defect_free t =
  Array.for_all
    (fun r -> not (row_defective t.chip ~width:t.width r))
    t.row_map
