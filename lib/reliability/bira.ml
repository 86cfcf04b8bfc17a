(* Built-in redundancy analysis: must-repair fixpoint, then exact
   branch-and-bound (guard-budgeted, degrading to greedy) or greedy
   most-defects-first spare allocation, with a Kőnig matching bound
   that prunes the search and certifies unrepairability.  See bira.mli
   for the model. *)

module Obs = Nxc_obs
module Guard = Nxc_guard
module Bitslice = Nxc_logic.Bitslice

let m_runs = Obs.Metrics.counter "bira.runs"
let m_repaired = Obs.Metrics.counter "bira.repaired"
let m_unrepairable = Obs.Metrics.counter "bira.unrepairable"
let m_must_rows = Obs.Metrics.counter "bira.must_repair_rows"
let m_must_cols = Obs.Metrics.counter "bira.must_repair_cols"
let m_nodes = Obs.Metrics.counter "bira.bnb_nodes"
let m_spares = Obs.Metrics.counter "bira.spares_used"
let h_analyze = Obs.Metrics.hdr "bira.latency.analyze"

type mode = Greedy | Exact

type solution = {
  repair_rows : int list;
  repair_cols : int list;
  must_rows : int list;
  must_cols : int list;
  degraded : bool;
}

let spares_used s = List.length s.repair_rows + List.length s.repair_cols

exception Unrepairable of string
exception Greedy_stuck
exception Out_of_budget

let clear_col colmask c =
  let w = c / Bitslice.word_bits in
  colmask.(w) <- colmask.(w) land lnot (1 lsl (c mod Bitslice.word_bits))

let set_col colmask c =
  let w = c / Bitslice.word_bits in
  colmask.(w) <- colmask.(w) lor (1 lsl (c mod Bitslice.word_bits))

(* Kőnig bound: a maximum matching of the defect graph (surviving rows
   x surviving columns, one edge per defective crosspoint), grown by
   augmenting paths over the row bitmaps.  Every repair deletes a
   vertex cover of that graph, so it replaces at least as many lines as
   the matching has edges.  Returns the column -> row match array and
   its size; one [guard] step per matched row. *)
let matching ~guard chip ~keep_r ~colmask =
  let n_r = Defect.rows chip and n_c = Defect.cols chip in
  let nw = Array.length colmask in
  let match_c = Array.make n_c (-1) in
  let seen = Array.make n_c 0 and epoch = ref 0 in
  let rec augment r =
    let words = Defect.row_words chip r in
    let found = ref false and w = ref 0 in
    while (not !found) && !w < nw do
      let m = ref (words.(!w) land colmask.(!w)) in
      while (not !found) && !m <> 0 do
        let c = (!w * Bitslice.word_bits) + Bitslice.lowest_set !m in
        m := !m land (!m - 1);
        if seen.(c) <> !epoch then begin
          seen.(c) <- !epoch;
          if match_c.(c) < 0 || augment match_c.(c) then begin
            match_c.(c) <- r;
            found := true
          end
        end
      done;
      incr w
    done;
    !found
  in
  let size = ref 0 in
  for r = 0 to n_r - 1 do
    if keep_r.(r) then begin
      incr epoch;
      if augment r then begin
        incr size;
        if not (Guard.Budget.step guard) then raise Out_of_budget
      end
    end
  done;
  (match_c, !size)

let full_colmask chip =
  let nw = Defect.word_cols chip in
  let mask = Array.make nw (-1) in
  mask.(nw - 1) <- Bitslice.tail_mask (Defect.cols chip);
  mask

let defect_matching chip =
  match
    matching ~guard:(Guard.Budget.current ()) chip
      ~keep_r:(Array.make (Defect.rows chip) true)
      ~colmask:(full_colmask chip)
  with
  | match_c, _ ->
      let pairs = ref [] in
      Array.iteri (fun c r -> if r >= 0 then pairs := (r, c) :: !pairs) match_c;
      Some (Array.of_list (List.sort compare !pairs))
  | exception Out_of_budget -> None

(* Mutable analysis state over the full physical array: keep-masks for
   the surviving lines (the columns also as a word mask over the
   defect bitmaps) plus the remaining spare budgets. *)
type state = {
  chip : Defect.t;
  keep_r : bool array;
  keep_c : bool array;
  colmask : int array;  (* the surviving columns, in the Bitslice layout *)
  row_cnt : int array;  (* defects per surviving row, at surviving cols *)
  col_cnt : int array;
  mutable rem_r : int;  (* spare rows still available *)
  mutable rem_c : int;
}

let delete_row st r =
  st.keep_r.(r) <- false;
  st.rem_r <- st.rem_r - 1

let delete_col st c =
  st.keep_c.(c) <- false;
  clear_col st.colmask c;
  st.rem_c <- st.rem_c - 1

(* one AND and a popcount per row word; only words holding surviving
   defects pay a per-bit visit for the column counts *)
let recount st =
  let n_r = Defect.rows st.chip in
  Array.fill st.row_cnt 0 n_r 0;
  Array.fill st.col_cnt 0 (Array.length st.col_cnt) 0;
  let total = ref 0 in
  for r = 0 to n_r - 1 do
    if st.keep_r.(r) then begin
      let words = Defect.row_words st.chip r in
      for w = 0 to Array.length st.colmask - 1 do
        let m = words.(w) land st.colmask.(w) in
        if m <> 0 then begin
          st.row_cnt.(r) <- st.row_cnt.(r) + Bitslice.popcount m;
          Bitslice.iter_set m (fun b ->
              let c = (w * Bitslice.word_bits) + b in
              st.col_cnt.(c) <- st.col_cnt.(c) + 1)
        end
      done;
      total := !total + st.row_cnt.(r)
    end
  done;
  !total

(* Phase 1: a surviving row with more defects than the column dimension
   has remaining spares can only be fixed by replacing the row itself
   (and symmetrically).  Deleting a line changes the counts and the
   budgets, so iterate to a fixpoint; a budget overflow here is a proof
   of unrepairability.  One [guard] step per deleted line. *)
let must_repair ~guard st =
  let n_r = Defect.rows st.chip and n_c = Defect.cols st.chip in
  let must_r = ref [] and must_c = ref [] in
  let rec fix () =
    ignore (recount st : int);
    let victim = ref None in
    (try
       for r = 0 to n_r - 1 do
         if st.keep_r.(r) && st.row_cnt.(r) > st.rem_c then begin
           victim := Some (`Row r);
           raise Exit
         end
       done;
       for c = 0 to n_c - 1 do
         if st.keep_c.(c) && st.col_cnt.(c) > st.rem_r then begin
           victim := Some (`Col c);
           raise Exit
         end
       done
     with Exit -> ());
    match !victim with
    | None -> ()
    | Some (`Row r) ->
        if st.rem_r = 0 then
          raise
            (Unrepairable
               (Printf.sprintf
                  "row %d needs replacement but no spare rows remain" r));
        if not (Guard.Budget.step guard) then raise Out_of_budget;
        delete_row st r;
        must_r := r :: !must_r;
        fix ()
    | Some (`Col c) ->
        if st.rem_c = 0 then
          raise
            (Unrepairable
               (Printf.sprintf
                  "column %d needs replacement but no spare columns remain" c));
        if not (Guard.Budget.step guard) then raise Out_of_budget;
        delete_col st c;
        must_c := c :: !must_c;
        fix ()
  in
  fix ();
  (List.rev !must_r, List.rev !must_c)

(* Phase 2a: greedy most-defects-first, at most [rem_r + rem_c]
   deletion rounds, one [guard] step each.  [analyze] runs it
   unbudgeted, like Defect_flow.greedy_max — it is the floor every
   degradation lands on.  Raises [Greedy_stuck] when defects remain but
   both budgets are spent, which by itself proves nothing. *)
let greedy_alloc ~guard st =
  let n_r = Defect.rows st.chip and n_c = Defect.cols st.chip in
  let rows_del = ref [] and cols_del = ref [] in
  let rec loop () =
    if recount st > 0 then begin
      let best_r = ref (-1) and best_rc = ref 0 in
      let best_c = ref (-1) and best_cc = ref 0 in
      if st.rem_r > 0 then
        for r = 0 to n_r - 1 do
          if st.keep_r.(r) && st.row_cnt.(r) > !best_rc then begin
            best_r := r;
            best_rc := st.row_cnt.(r)
          end
        done;
      if st.rem_c > 0 then
        for c = 0 to n_c - 1 do
          if st.keep_c.(c) && st.col_cnt.(c) > !best_cc then begin
            best_c := c;
            best_cc := st.col_cnt.(c)
          end
        done;
      if !best_rc = 0 && !best_cc = 0 then raise Greedy_stuck;
      if not (Guard.Budget.step guard) then raise Out_of_budget;
      (* larger count wins; ties go to the dimension with more slack *)
      let take_row =
        if !best_rc > !best_cc then true
        else if !best_cc > !best_rc then false
        else st.rem_r >= st.rem_c
      in
      if take_row then begin
        delete_row st !best_r;
        rows_del := !best_r :: !rows_del
      end
      else begin
        delete_col st !best_c;
        cols_del := !best_c :: !cols_del
      end;
      loop ()
    end
  in
  loop ();
  (List.rev !rows_del, List.rev !cols_del)

(* Phase 2b: exact branch-and-bound over (replace row | replace column)
   decisions for the first uncovered defect in row-major order,
   minimizing lines used.  One guard step per node, and at most
   [node_budget] nodes.  A node is pruned when the matching of its
   uncovered defects exceeds its remaining spares, or when its used
   lines plus that matching reach the best repair so far: it holds no
   strictly smaller repair, so the first minimum found is the same as
   without the bound. *)
let node_budget = 200_000

let exact_alloc st guard =
  let n_r = Defect.rows st.chip in
  let keep_r = Array.copy st.keep_r and colmask = Array.copy st.colmask in
  let nw = Array.length colmask in
  let first_defect () =
    let rec row r =
      if r >= n_r then None
      else if not keep_r.(r) then row (r + 1)
      else
        let words = Defect.row_words st.chip r in
        let rec word w =
          if w >= nw then row (r + 1)
          else
            let m = words.(w) land colmask.(w) in
            if m <> 0 then
              Some (r, (w * Bitslice.word_bits) + Bitslice.lowest_set m)
            else word (w + 1)
        in
        word 0
    in
    row 0
  in
  let best = ref None in
  let nodes = ref 0 in
  let rec go rows_del cols_del rem_r rem_c used =
    incr nodes;
    if !nodes > node_budget || not (Guard.Budget.step guard) then
      raise Out_of_budget;
    match !best with
    | Some (b, _, _) when used >= b -> () (* bound *)
    | _ -> (
        match first_defect () with
        | None -> best := Some (used, rows_del, cols_del)
        | Some (r, c) ->
            let _, m =
              matching ~guard:Guard.Budget.unlimited st.chip ~keep_r ~colmask
            in
            let beats_best =
              match !best with Some (b, _, _) -> used + m < b | None -> true
            in
            if m <= rem_r + rem_c && beats_best then begin
              if rem_r > 0 then begin
                keep_r.(r) <- false;
                go (r :: rows_del) cols_del (rem_r - 1) rem_c (used + 1);
                keep_r.(r) <- true
              end;
              if rem_c > 0 then begin
                clear_col colmask c;
                go rows_del (c :: cols_del) rem_r (rem_c - 1) (used + 1);
                set_col colmask c
              end
            end)
  in
  let result =
    match go [] [] st.rem_r st.rem_c 0 with
    | () -> (
        match !best with
        | None -> `Unsat
        | Some (_, rows_del, cols_del) ->
            `Found (List.rev rows_del, List.rev cols_del))
    | exception Out_of_budget -> `Out_of_budget
  in
  Obs.Metrics.add m_nodes !nodes;
  result

let commit st (rows_del, cols_del) =
  List.iter (delete_row st) rows_del;
  List.iter (delete_col st) cols_del;
  (rows_del, cols_del)

(* The two phases on a fresh state: must-repair, then [alloc] on what
   it leaves.  [analyze] and [greedy_survivors] both run through here;
   only [analyze] bumps the bira.* counters. *)
let phases ~guard chip ~spare_rows ~spare_cols ~alloc =
  let n_r = Defect.rows chip and n_c = Defect.cols chip in
  let st =
    { chip;
      keep_r = Array.make n_r true;
      keep_c = Array.make n_c true;
      colmask = full_colmask chip;
      row_cnt = Array.make n_r 0;
      col_cnt = Array.make n_c 0;
      rem_r = spare_rows;
      rem_c = spare_cols }
  in
  let must = must_repair ~guard st in
  let sets = alloc st must in
  (st, must, sets)

let survivors keep =
  let acc = ref [] in
  for i = Array.length keep - 1 downto 0 do
    if keep.(i) then acc := i :: !acc
  done;
  Array.of_list !acc

let greedy_survivors chip ~spare_rows ~spare_cols =
  let guard = Guard.Budget.current () in
  match
    phases ~guard chip ~spare_rows ~spare_cols ~alloc:(fun st _ ->
        greedy_alloc ~guard st)
  with
  | st, _, _ -> `Survivors (survivors st.keep_r, survivors st.keep_c)
  | exception (Unrepairable _ | Greedy_stuck) -> `Stuck
  | exception Out_of_budget -> `Out_of_budget

let analyze ?(mode = Exact) chip ~spare_rows ~spare_cols =
  let guard = Guard.Budget.current () in
  Obs.Metrics.incr m_runs;
  let t0 = Obs.Clock.now_ns () in
  let finish r =
    Obs.Metrics.hdr_observe h_analyze (Obs.Clock.now_ns () - t0);
    r
  in
  Obs.Span.with_ ~name:"bira.analyze"
    ~attrs:(fun () ->
      [ ("spare_rows", Obs.Json.Int spare_rows);
        ("spare_cols", Obs.Json.Int spare_cols) ])
  @@ fun () ->
  if spare_rows < 0 || spare_cols < 0 then
    finish
      (Error
         (Guard.Error.invalid_inputf "bira: negative spare budget %d/%d"
            spare_rows spare_cols))
  else if spare_rows >= Defect.rows chip || spare_cols >= Defect.cols chip then
    finish
      (Error
         (Guard.Error.invalid_inputf
            "bira: %d+%d spares leave no logical array on a %dx%d chip"
            spare_rows spare_cols (Defect.rows chip) (Defect.cols chip)))
  else begin
    (* the must-repair and greedy phases are unbudgeted here *)
    let free = Guard.Budget.unlimited in
    (* a greedy dead end is a proof only when the Kőnig bound on the
       defects it started from certifies it *)
    let greedy st =
      let keep_r = Array.copy st.keep_r and colmask = Array.copy st.colmask in
      let left = st.rem_r + st.rem_c in
      try greedy_alloc ~guard:free st
      with Greedy_stuck ->
        let _, m = matching ~guard:free chip ~keep_r ~colmask in
        raise
          (Unrepairable
             (if m > left then
                Printf.sprintf
                  "a matching of %d defects needs more than the %d spare \
                   lines left"
                  m left
              else
                "greedy allocation found no repair (a heuristic miss, not a \
                 proof of unrepairability)"))
    in
    let alloc st (must_r, must_c) =
      Obs.Metrics.add m_must_rows (List.length must_r);
      Obs.Metrics.add m_must_cols (List.length must_c);
      match mode with
      | Greedy -> `Alloc (greedy st, false)
      | Exact -> (
          (* allocation mutates nothing until committed, so the
             greedy fallback starts from the post-must-repair state *)
          match exact_alloc st guard with
          | `Found sets -> `Alloc (commit st sets, false)
          | `Unsat ->
              raise
                (Unrepairable
                   "no spare assignment covers the remaining defects")
          | `Out_of_budget ->
              if
                Guard.Budget.exhausted guard
                && Guard.Budget.policy guard = Guard.Budget.Fail
              then `Fail (Guard.Budget.error guard)
              else begin
                Guard.Budget.degrade "bira_exact_to_greedy";
                `Alloc (greedy st, true)
              end)
    in
    match
      match phases ~guard:free chip ~spare_rows ~spare_cols ~alloc with
      | _, _, `Fail e -> Error e
      | _, (must_r, must_c), `Alloc ((rows_del, cols_del), degraded) ->
          let sol =
            { repair_rows = List.sort compare (must_r @ rows_del);
              repair_cols = List.sort compare (must_c @ cols_del);
              must_rows = must_r;
              must_cols = must_c;
              degraded }
          in
          Obs.Metrics.incr m_repaired;
          Obs.Metrics.add m_spares (spares_used sol);
          Ok sol
    with
    | result -> finish result
    | exception Unrepairable why ->
        Obs.Metrics.incr m_unrepairable;
        finish (Error (Guard.Error.unsat ("bira: " ^ why)))
  end

(* ------------------------------------------------------------------ *)
(* Monte-Carlo harness                                                 *)
(* ------------------------------------------------------------------ *)

type stats = {
  repaired : bool;
  spare_rows_used : int;
  spare_cols_used : int;
  must_rows_count : int;
  must_cols_count : int;
  degraded : bool;
}

type mc = {
  mc_trials : int;
  mc_repaired : int;
  mc_avg_spares : float;
  mc_must_lines : int;
  mc_degraded : int;
}

let failed_stats =
  { repaired = false;
    spare_rows_used = 0;
    spare_cols_used = 0;
    must_rows_count = 0;
    must_cols_count = 0;
    degraded = false }

let monte_carlo ?pool ?(mode = Exact) rng ~trials ~rows ~cols
    ~spare_rows ~spare_cols ~profile =
  if trials <= 0 then invalid_arg "Bira.monte_carlo: trials must be positive";
  if rows <= 0 || cols <= 0 then invalid_arg "Bira.monte_carlo: empty array";
  if spare_rows < 0 || spare_cols < 0 then
    invalid_arg "Bira.monte_carlo: negative spare budget";
  Obs.Span.with_ ~name:"bira.monte_carlo"
    ~attrs:(fun () ->
      [ ("trials", Obs.Json.Int trials);
        ("rows", Obs.Json.Int (rows + spare_rows));
        ("cols", Obs.Json.Int (cols + spare_cols)) ])
  @@ fun () ->
  let per =
    Rng.map_trials ?pool rng ~trials (fun r ->
        let chip =
          Defect.generate r ~rows:(rows + spare_rows)
            ~cols:(cols + spare_cols) profile
        in
        (* the ambient budget is this slot's partition slice; analyze
           under a Degrade view of it — a sweep trial winds down to an
           unrepaired outcome rather than aborting the whole sweep *)
        let g = Guard.Budget.degrading (Guard.Budget.current ()) in
        match
          Guard.Budget.with_current g (fun () ->
              analyze ~mode chip ~spare_rows ~spare_cols)
        with
        | Ok sol ->
            { repaired = true;
              spare_rows_used = List.length sol.repair_rows;
              spare_cols_used = List.length sol.repair_cols;
              must_rows_count = List.length sol.must_rows;
              must_cols_count = List.length sol.must_cols;
              degraded = sol.degraded }
        | Error _ -> failed_stats)
  in
  let sum f = Array.fold_left (fun a s -> a + f s) 0 per in
  let repaired = sum (fun s -> if s.repaired then 1 else 0) in
  let spares = sum (fun s -> s.spare_rows_used + s.spare_cols_used) in
  ( { mc_trials = trials;
      mc_repaired = repaired;
      mc_avg_spares =
        (if repaired = 0 then 0.0
         else float_of_int spares /. float_of_int repaired);
      mc_must_lines = sum (fun s -> s.must_rows_count + s.must_cols_count);
      mc_degraded = sum (fun s -> if s.degraded then 1 else 0) },
    per )

