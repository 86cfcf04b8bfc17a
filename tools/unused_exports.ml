(* Unused-export report: a rough word-grep over the library interfaces.

   For every [val] declared in [lib/**/*.mli] it prints two counts:

   - [prod]: the .ml files under bin/, lib/ and examples/ that mention
     the name, not counting the module's own .ml;
   - [test]: the .ml files under test/, bench/, tools/ and svcbench/
     that mention it.

   Values with no production caller come first.  The match is by bare
   identifier, so a value shares its count with every other value (or
   local binding, or comment word) of the same name, and a use under
   another name is missed: check each hit by hand before deleting it.
   This is a report, not a gate; it always exits 0.

   Run from the repository root: `make unused-exports`. *)

let prod_dirs = [ "bin"; "lib"; "examples" ]
let test_dirs = [ "test"; "bench"; "tools"; "svcbench" ]

let rec files_under dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then []
  else
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun entry ->
           let path = Filename.concat dir entry in
           if entry = "_build" || entry.[0] = '.' then []
           else if Sys.is_directory path then files_under path
           else [ path ])

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

(* Every identifier-shaped word of [s]. *)
let words s =
  let tbl = Hashtbl.create 256 in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    if is_ident_char s.[!i] then begin
      let j = ref !i in
      while !j < n && is_ident_char s.[!j] do
        incr j
      done;
      Hashtbl.replace tbl (String.sub s !i (!j - !i)) ();
      i := !j
    end
    else incr i
  done;
  tbl

(* Names declared by [val name :] lines; operators are skipped. *)
let vals_of_mli path =
  read_file path |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         match String.split_on_char ' ' (String.trim line) with
         | "val" :: name :: _ when name <> "" && is_ident_char name.[0] ->
             let len = ref 0 in
             while !len < String.length name && is_ident_char name.[!len] do
               incr len
             done;
             Some (String.sub name 0 !len)
         | _ -> None)

let () =
  let ml_files dirs =
    List.concat_map (fun d -> files_under d) dirs
    |> List.filter (fun p -> Filename.check_suffix p ".ml")
    |> List.map (fun p -> (p, words (read_file p)))
  in
  let prod = ml_files prod_dirs and test = ml_files test_dirs in
  let count ~except name files =
    List.length
      (List.filter
         (fun (p, ws) -> p <> except && Hashtbl.mem ws name)
         files)
  in
  let rows =
    files_under "lib"
    |> List.filter (fun p -> Filename.check_suffix p ".mli")
    |> List.concat_map (fun mli ->
           let own = Filename.remove_extension mli ^ ".ml" in
           let m =
             String.capitalize_ascii
               (Filename.remove_extension (Filename.basename mli))
           in
           List.map
             (fun name ->
               ( count ~except:own name prod,
                 count ~except:own name test,
                 m ^ "." ^ name ))
             (vals_of_mli mli))
    |> List.sort compare
  in
  Printf.printf "%5s %5s  %s\n" "prod" "test" "value";
  List.iter (fun (p, t, v) -> Printf.printf "%5d %5d  %s\n" p t v) rows;
  let no_prod = List.filter (fun (p, _, _) -> p = 0) rows in
  let none = List.filter (fun (_, t, _) -> t = 0) no_prod in
  Printf.printf
    "%d exported values; %d with no production caller; %d with no caller \
     anywhere\n"
    (List.length rows) (List.length no_prod) (List.length none)
