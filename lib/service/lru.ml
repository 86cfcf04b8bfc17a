(* Recency is a monotonic tick per entry; eviction scans the table for
   the minimum stamp.  Ticks are unique, so the victim never depends on
   the table's iteration order. *)

type 'a entry = { mutable value : 'a; mutable stamp : int }

type 'a t = {
  tbl : (string, 'a entry) Hashtbl.t;
  cap : int;
  mutable tick : int;
}

let create capacity =
  if capacity <= 0 then invalid_arg "Nxc_service.Lru.create: capacity <= 0";
  { tbl = Hashtbl.create 64; cap = capacity; tick = 0 }

let touch t e =
  t.tick <- t.tick + 1;
  e.stamp <- t.tick

let peek t key = Option.map (fun e -> e.value) (Hashtbl.find_opt t.tbl key)

let find t key =
  match Hashtbl.find_opt t.tbl key with
  | Some e ->
      touch t e;
      Some e.value
  | None -> None

let evict_lru t =
  let victim = ref None in
  Hashtbl.iter
    (fun key e ->
      match !victim with
      | Some (_, s) when s <= e.stamp -> ()
      | _ -> victim := Some (key, e.stamp))
    t.tbl;
  match !victim with
  | Some (key, _) ->
      Hashtbl.remove t.tbl key;
      true
  | None -> false

let add t key value =
  match Hashtbl.find_opt t.tbl key with
  | Some e ->
      e.value <- value;
      touch t e;
      false
  | None ->
      let evicted = Hashtbl.length t.tbl >= t.cap && evict_lru t in
      let e = { value; stamp = 0 } in
      touch t e;
      Hashtbl.add t.tbl key e;
      evicted

let fold f t acc = Hashtbl.fold (fun key e acc -> f key e.value acc) t.tbl acc
