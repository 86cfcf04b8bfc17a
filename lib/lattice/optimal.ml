module L = Nxc_logic
module Obs = Nxc_obs
module Guard = Nxc_guard

let m_candidates = Obs.Metrics.counter "lattice.candidates_tried"
let m_searches = Obs.Metrics.counter "lattice.optimal_searches"

type result = Found of Lattice.t | Proved_larger of int | Budget_exhausted

(* Dimension pairs of a given area, wider-or-square first for cache
   friendliness; the function computed is not symmetric in (r, c) so all
   factorizations are tried. *)
let dims_of_area area =
  let rec go r acc =
    if r > area then List.rev acc
    else if area mod r = 0 then go (r + 1) ((r, area / r) :: acc)
    else go (r + 1) acc
  in
  go 1 []

(* total candidate assignments a search may try *)
let budget = 5_000_000

let search ?(max_area = 9) f =
  let n = L.Boolfunc.n_vars f in
  let alphabet =
    List.concat_map
      (fun v -> [ Lattice.Lit (v, L.Cube.Pos); Lattice.Lit (v, L.Cube.Neg) ])
      (List.init n Fun.id)
    @ [ Lattice.Zero; Lattice.One ]
  in
  let alphabet = Array.of_list alphabet in
  let k = Array.length alphabet in
  let tried = ref 0 in
  (* Enumerate the assignments of one dimension pair as a base-k
     counter, trying at most [cap] candidates against the ambient
     budget.  Returns the verdict plus the local candidate count. *)
  let try_dims ~cap (r, c) =
    let guard = Guard.Budget.current () in
    let cells = r * c in
    let digits = Array.make cells 0 in
    (* one grid buffer per dimension pair, refilled in place for every
       candidate; [Lattice.make] takes its own defensive copy *)
    let buf = Array.init r (fun _ -> Array.make c Lattice.Zero) in
    let grid () =
      for i = 0 to r - 1 do
        for j = 0 to c - 1 do
          buf.(i).(j) <- alphabet.(digits.((i * c) + j))
        done
      done;
      buf
    in
    let rec bump i =
      if i < 0 then false
      else if digits.(i) + 1 < k then begin
        digits.(i) <- digits.(i) + 1;
        true
      end
      else begin
        digits.(i) <- 0;
        bump (i - 1)
      end
    in
    let count = ref 0 in
    let verdict = ref `Done in
    let continue_ = ref true in
    while !continue_ do
      incr count;
      if !count > cap || not (Guard.Budget.step guard) then begin
        verdict := `Out;
        continue_ := false
      end
      else begin
        let lattice = Lattice.make ~n_vars:(max n 1) (grid ()) in
        if Checker.equivalent lattice f then begin
          verdict := `Hit lattice;
          continue_ := false
        end
        else if not (bump (cells - 1)) then continue_ := false
      end
    done;
    (!count, !verdict)
  in
  (* An area scan threads the one budget through the pairs in order. *)
  let scan_area area =
    let rec go = function
      | [] -> `Done
      | d :: rest -> (
          let count, v = try_dims ~cap:(budget - !tried) d in
          tried := !tried + count;
          match v with `Done -> go rest | v -> v)
    in
    go (dims_of_area area)
  in
  let rec by_area area =
    if area > max_area then Proved_larger max_area
    else
      match scan_area area with
      | `Done -> by_area (area + 1)
      | `Hit lattice -> Found lattice
      | `Out -> Budget_exhausted
  in
  Obs.Metrics.incr m_searches;
  Obs.Span.with_ ~name:"lattice.optimal_search"
    ~attrs:(fun () -> [ ("max_area", Obs.Json.Int max_area) ])
  @@ fun () ->
  let outcome =
    if k = 0 then
      (* nullary function: only constants available *)
      match L.Boolfunc.is_const f with
      | Some b -> Found (Compose.of_const 1 b)
      | None -> assert false
    else by_area 1
  in
  Obs.Metrics.add m_candidates !tried;
  outcome

let minimum_area ?max_area f =
  match search ?max_area f with
  | Found lattice -> Some (Lattice.area lattice)
  | Proved_larger _ | Budget_exhausted -> None
