(* Unused-export gate over the typed trees of the whole project.

   Reads the [.cmti] of every [lib/**/*.mli] and the [.cmt] of every
   compiled [.ml] (bin/, lib/, examples/, test/, bench/, tools/,
   svcbench/) from [_build/default], so `dune build @check` must have
   run first.  Every value a library interface exports (nested
   submodules included) is matched against the value paths the code
   really uses: identifiers are resolved by the compiler, local
   [module X = ...] aliases are expanded, and a use counts only where
   it names that very module, so [Multi.num_products] no longer hides
   an unused [Minimize.num_products].

   For each value it prints three counts of source files:

   - [prod]: files under bin/, lib/ and examples/ other than the
     module's own .ml that use it;
   - [test]: files under test/, bench/, tools/ and svcbench/ that use it;
   - [own]: 1 when the module's own .ml uses it, else 0.

   A value with no prod caller is followed by the files that use it.

   A module passed whole — a functor argument, [include], a first-class
   module — counts as a use of each of its values, so the report errs
   towards keeping; an [open] does not, since the values used under it
   resolve to their own paths.  Values with no caller outside their module come
   first.

   A second section lists every optional parameter of those exports
   with the number of call sites that set it, in three groups: bin/ and
   lib/ ([prod]), bench/, examples/ and svcbench/ ([bench]), and test/
   and tools/ ([test]).  A callee is resolved through its declaration
   location, so calls through module aliases count; inside its own
   module it is resolved by name.  A [?x:x] that only forwards the
   caller's own optional parameter [?x] sets the callee's [?x] wherever
   the caller's [?x] is set, so a forwarded parameter counts in the
   groups of its forwarders' call sites.

   The report is also a gate: it exits 1, after listing each failure,
   when

   - an export has no caller outside its module;
   - an export with no prod caller has no "Test-only:" reason in its
     doc comment naming at least one repository [.ml] file, such as
     "Test-only: test/test_par.ml checks the --jobs mapping.";
   - a file named by such a reason does not use the value, or the
     value has a prod caller and so needs no reason;
   - an export named [set_*] has no prod caller: a setter only tests
     call is a global knob no product turns, whatever its reason;
   - an optional parameter is set by no call site in bin/, lib/,
     bench/, examples/ or svcbench/: a knob only tests turn is a
     second code path no product runs.

   Run from the repository root: `make unused-exports`. *)

open Typedtree

let build_root = Filename.concat "_build" "default"
let prod_dirs = [ "bin"; "lib"; "examples" ]

let rec files_under dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then []
  else
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun entry ->
           let path = Filename.concat dir entry in
           if Sys.is_directory path then files_under path else [ path ])

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* The compilation unit [Nxc_logic__Minimize] of lib/logic/minimize.ml
   is known to library clients as [Nxc_logic.Minimize] (through dune's
   alias module) and to the library's own modules as [Minimize] under
   [-open Nxc_logic]; both spellings reach the unit below. *)
let split_unit name =
  let n = String.length name in
  let rec go acc start i =
    if i >= n - 1 then List.rev (String.sub name start (n - start) :: acc)
    else if name.[i] = '_' && name.[i + 1] = '_' then
      go (String.sub name start (i - start) :: acc) (i + 2) (i + 2)
    else go acc start (i + 1)
  in
  List.filter (( <> ) "") (go [] 0 0)

(* ------------------------------------------------------------------ *)
(* exports                                                             *)
(* ------------------------------------------------------------------ *)

(* the labels of a value type's optional parameters, in order *)
let rec optional_labels ty =
  match Types.get_desc ty with
  | Types.Tarrow (Optional l, _, rest, _) -> l :: optional_labels rest
  | Types.Tarrow (_, _, rest, _) -> optional_labels rest
  | Types.Tpoly (ty, _) -> optional_labels ty
  | _ -> []

let loc_key (loc : Location.t) =
  (loc.loc_start.pos_fname, loc.loc_start.pos_cnum)

(* the text of a value's doc comments *)
let doc_text (attrs : attributes) =
  List.filter_map
    (fun (a : Parsetree.attribute) ->
      match a.attr_payload with
      | PStr
          [ { pstr_desc =
                Pstr_eval
                  ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
              _ } ]
        when a.attr_name.txt = "ocaml.doc" ->
          Some s
      | _ -> None)
    attrs
  |> String.concat "\n"

type export = {
  name : string;  (* "Sub.value" *)
  loc : string * int;
  labels : string list;
  doc : string;
}

(* every value of the interface, with its declaration location,
   optional labels and doc comment *)
let rec sig_values prefix (s : signature) =
  List.concat_map
    (fun item ->
      match item.sig_desc with
      | Tsig_value vd ->
          [ { name = prefix ^ vd.val_name.txt;
              loc = loc_key vd.val_val.val_loc;
              labels = optional_labels vd.val_val.val_type;
              doc = doc_text vd.val_attributes } ]
      | Tsig_module
          { md_name = { txt = Some m; _ };
            md_type = { mty_desc = Tmty_signature s; _ }; _ } ->
          sig_values (prefix ^ m ^ ".") s
      | _ -> [])
    s.sig_items

(* The files a "Test-only:" reason names: its words that look like a
   path to a repository [.ml] file.  [None] when the doc has no
   reason. *)
let reason_files doc =
  let marker = "Test-only:" in
  let ml = String.length marker and n = String.length doc in
  let rec find i =
    if i + ml > n then None
    else if String.sub doc i ml = marker then Some (i + ml)
    else find (i + 1)
  in
  Option.map
    (fun start ->
      let path_char = function
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '/' | '.' | '-' -> true
        | _ -> false
      in
      let words = ref [] and buf = Buffer.create 32 in
      let flush () =
        let w = Buffer.contents buf in
        Buffer.clear buf;
        (* a sentence may end right after the path *)
        let w =
          if String.length w > 0 && w.[String.length w - 1] = '.' then
            String.sub w 0 (String.length w - 1)
          else w
        in
        if String.contains w '/' && Filename.check_suffix w ".ml" then
          words := w :: !words
      in
      for i = start to n - 1 do
        if path_char doc.[i] then Buffer.add_char buf doc.[i] else flush ()
      done;
      flush ();
      List.sort_uniq compare !words)
    (find 0)

(* ------------------------------------------------------------------ *)
(* uses                                                                *)
(* ------------------------------------------------------------------ *)

let rec components = function
  | Path.Pident id -> [ Ident.name id ]
  | Path.Pdot (p, s) -> components p @ [ s ]
  | Path.Papply (p, _) | Path.Pextra_ty (p, _) -> components p

(* The library unit a (fully expanded) path goes through, and the
   components after it: none for the module itself, ["Sub"; "value"]
   for one of its values. *)
let resolve units path =
  let rec go = function
    | [] -> None
    | a :: tail -> (
        match tail with
        | b :: rest when Hashtbl.mem units (a ^ "__" ^ b) -> Some (a ^ "__" ^ b, rest)
        | _ when Hashtbl.mem units a -> Some (a, tail)
        | _ -> go tail)
  in
  go (List.concat_map split_unit (components path))

type uses = {
  values : (string * string, unit) Hashtbl.t;  (* (unit, value) *)
  wholes : (string, unit) Hashtbl.t;  (* units used as a whole module *)
  locals : (string, unit) Hashtbl.t;
      (* this file's own top-level values it uses, as "Sub.value" *)
  sets : (string * string * string, int) Hashtbl.t;
      (* (unit, value, label) -> call sites that set that optional *)
  forwards : ((string * string * string) * (string * string * string)) list ref;
      (* (forwarder, label) -> (callee, label): a [?x:x] passing the
         forwarder's own optional parameter on *)
}

(* The file's top-level values and submodules, by [Ident.unique_name]:
   value -> "Sub.value", submodule -> "Sub.".  A module's own .ml
   reaches its exports through these identifiers. *)
let top_level (str : structure) =
  let values = Hashtbl.create 64 and modules = Hashtbl.create 4 in
  let rec walk prefix str =
    List.iter
      (fun item ->
        match item.str_desc with
        | Tstr_value (_, vbs) ->
            List.iter
              (fun vb ->
                List.iter
                  (fun id ->
                    Hashtbl.replace values (Ident.unique_name id)
                      (prefix ^ Ident.name id))
                  (pat_bound_idents vb.vb_pat))
              vbs
        | Tstr_module
            { mb_id = Some id;
              mb_expr =
                { mod_desc =
                    ( Tmod_structure s
                    | Tmod_constraint ({ mod_desc = Tmod_structure s; _ }, _, _, _) );
                  _ };
              _ } ->
            let sub = prefix ^ Ident.name id ^ "." in
            Hashtbl.replace modules (Ident.unique_name id) sub;
            walk sub s
        | _ -> ())
      str.str_items
  in
  walk "" str;
  (values, modules)

let uses_of units by_loc unit_name (str : structure) =
  let aliases = Hashtbl.create 16 in
  let rec expand = function
    | Path.Pident id as p -> (
        match Hashtbl.find_opt aliases (Ident.unique_name id) with
        | Some q -> expand q
        | None -> p)
    | Path.Pdot (p, s) -> Path.Pdot (expand p, s)
    | p -> p
  in
  let u =
    { values = Hashtbl.create 64;
      wholes = Hashtbl.create 4;
      locals = Hashtbl.create 64;
      sets = Hashtbl.create 16;
      forwards = ref [] }
  in
  let top_values, top_modules = top_level str in
  (* optional parameters in scope, by unique name: the top-level value
     whose definition binds them, if any, and their label *)
  let opt_params = Hashtbl.create 16 in
  let enclosing = ref None in
  let local = function
    | Path.Pident id -> Hashtbl.find_opt top_values (Ident.unique_name id)
    | Path.Pdot (Path.Pident m, v) ->
        Option.map (fun sub -> sub ^ v)
          (Hashtbl.find_opt top_modules (Ident.unique_name m))
    | _ -> None
  in
  let callee p (vd : Types.value_description) =
    match Hashtbl.find_opt by_loc (loc_key vd.val_loc) with
    | Some _ as export -> export
    | None -> Option.map (fun v -> (unit_name, v)) (local p)
  in
  (* An argument the type checker recorded for optional parameter
     [label]: an omitted one is a [None] at [Location.none] and sets
     nothing; [?x:x] where [x] is the caller's own [?x] forwards it;
     anything else sets it. *)
  let argument label (e : expression) =
    match e.exp_desc with
    | Texp_construct (_, { Types.cstr_name = "None"; _ }, [])
      when e.exp_loc = Location.none ->
        `Omitted
    | Texp_ident (Path.Pident id, _, _)
      when Ident.name id = label
           && Hashtbl.mem opt_params (Ident.unique_name id) ->
        `Forwards (Hashtbl.find opt_params (Ident.unique_name id))
    | _ -> `Sets
  in
  let alias_target me =
    match me.mod_desc with
    | Tmod_ident (p, _) | Tmod_constraint ({ mod_desc = Tmod_ident (p, _); _ }, _, _, _)
      ->
        Some p
    | _ -> None
  in
  let super = Tast_iterator.default_iterator in
  let it =
    { super with
      expr =
        (fun it e ->
          match e.exp_desc with
          | Texp_ident (p, _, _) -> (
              Option.iter (fun v -> Hashtbl.replace u.locals v ()) (local p);
              match resolve units (expand p) with
              | Some (unit, (_ :: _ as rest)) ->
                  Hashtbl.replace u.values (unit, String.concat "." rest) ()
              | _ -> ())
          | Texp_apply ({ exp_desc = Texp_ident (p, _, vd); _ }, args) ->
              Option.iter
                (fun (unit, v) ->
                  List.iter
                    (function
                      | Asttypes.Optional l, Some arg -> (
                          let k = (unit, v, l) in
                          match argument l arg with
                          | `Omitted -> ()
                          | `Forwards (Some owner, pl) ->
                              u.forwards := ((unit_name, owner, pl), k) :: !(u.forwards)
                          | `Forwards (None, _) -> ()
                          | `Sets ->
                              let n = Hashtbl.find_opt u.sets k in
                              Hashtbl.replace u.sets k
                                (1 + Option.value ~default:0 n))
                      | _ -> ())
                    args)
                (callee p vd);
              super.expr it e
          | Texp_function { arg_label = Optional l; cases; _ } ->
              List.iter
                (fun c ->
                  List.iter
                    (fun id ->
                      Hashtbl.replace opt_params (Ident.unique_name id)
                        (!enclosing, l))
                    (pat_bound_idents c.c_lhs))
                cases;
              super.expr it e
          | Texp_letmodule (Some id, _, _, me, body) -> (
              match alias_target me with
              | Some p ->
                  Hashtbl.replace aliases (Ident.unique_name id) p;
                  it.expr it body
              | None -> super.expr it e)
          | _ -> super.expr it e);
      value_binding =
        (fun it vb ->
          match vb.vb_pat.pat_desc with
          | Tpat_var (id, _) when Hashtbl.mem top_values (Ident.unique_name id) ->
              let outer = !enclosing in
              enclosing := Hashtbl.find_opt top_values (Ident.unique_name id);
              super.value_binding it vb;
              enclosing := outer
          | _ -> super.value_binding it vb);
      structure_item =
        (fun it item ->
          match item.str_desc with
          | Tstr_module { mb_id = Some id; mb_expr; _ }
            when alias_target mb_expr <> None ->
              Option.iter
                (Hashtbl.replace aliases (Ident.unique_name id))
                (alias_target mb_expr)
          | _ -> super.structure_item it item);
      (* an [open M] or [M.(e)] only brings names into scope: the
         values used under it are resolved like any other *)
      open_declaration = (fun _ _ -> ());
      module_expr =
        (fun it me ->
          (match me.mod_desc with
          | Tmod_ident (p, _) -> (
              match resolve units (expand p) with
              | Some (unit, []) -> Hashtbl.replace u.wholes unit ()
              | _ -> ())
          | _ -> ());
          super.module_expr it me) }
  in
  it.structure it str;
  u

(* ------------------------------------------------------------------ *)
(* report and gate                                                     *)
(* ------------------------------------------------------------------ *)

let () =
  if not (Sys.file_exists build_root) then begin
    prerr_endline "unused_exports: no _build/default; run `dune build @check`";
    exit 2
  end;
  let infos =
    files_under build_root
    |> List.filter_map (fun path ->
           if Filename.check_suffix path ".cmt" || Filename.check_suffix path ".cmti"
           then
             match Cmt_format.read_cmt path with
             | { Cmt_format.cmt_sourcefile = Some src; _ } as info ->
                 Some (src, info)
             | _ -> None
             | exception _ -> None
           else None)
  in
  (* library interfaces: unit name -> exported values, and its .mli *)
  let units = Hashtbl.create 64 and interfaces = Hashtbl.create 64 in
  List.iter
    (fun (src, info) ->
      match info.Cmt_format.cmt_annots with
      | Cmt_format.Interface s when starts_with ~prefix:"lib/" src ->
          Hashtbl.replace units info.cmt_modname (sig_values "" s);
          Hashtbl.replace interfaces info.cmt_modname src
      | _ -> ())
    infos;
  let by_loc = Hashtbl.create 1024 in
  Hashtbl.iter
    (fun unit values ->
      List.iter (fun e -> Hashtbl.replace by_loc e.loc (unit, e.name)) values)
    units;
  (* per implementation file: its source, unit, whether it is
     production code, its optional-parameter group and what it uses *)
  let impls =
    List.filter_map
      (fun (src, info) ->
        match info.Cmt_format.cmt_annots with
        | Cmt_format.Implementation str ->
            let under dirs =
              List.exists (fun d -> starts_with ~prefix:(d ^ "/") src) dirs
            in
            let prod = under prod_dirs in
            let group =
              if under [ "bin"; "lib" ] then 0
              else if under [ "bench"; "examples"; "svcbench" ] then 1
              else 2
            in
            Some
              (src, info.cmt_modname, prod, group,
               uses_of units by_loc info.cmt_modname str)
        | _ -> None)
      infos
  in
  let display unit =
    match List.rev (split_unit unit) with m :: _ -> m | [] -> unit
  in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let rows =
    Hashtbl.fold
      (fun unit values acc ->
        List.map
          (fun e ->
            let prod = ref 0 and test = ref [] and own = ref 0 in
            List.iter
              (fun (src, modname, is_prod, _, u) ->
                if modname = unit then begin
                  if Hashtbl.mem u.locals e.name then own := 1
                end
                else if
                  Hashtbl.mem u.values (unit, e.name) || Hashtbl.mem u.wholes unit
                then if is_prod then incr prod else test := src :: !test)
              impls;
            ( !prod,
              List.length !test,
              !own,
              display unit ^ "." ^ e.name,
              (Hashtbl.find interfaces unit, e),
              !test ))
          values
        @ acc)
      units []
    |> List.sort compare
  in
  Printf.printf "%5s %5s %4s  %s\n" "prod" "test" "own" "value";
  List.iter
    (fun (p, t, o, v, (mli, e), users) ->
      let fail fmt = fail ("%s (%s): " ^^ fmt) v mli in
      if p = 0 then
        Printf.printf "%5d %5d %4d  %s  [%s]\n" p t o v
          (String.concat " " (List.sort compare users))
      else Printf.printf "%5d %5d %4d  %s\n" p t o v;
      match (p, reason_files e.doc) with
      | 0, _ when t = 0 -> fail "no caller outside its module"
      | 0, _ when starts_with ~prefix:"set_" e.name ->
          fail "a setter no bin/, lib/ or examples/ code calls: a knob only tests turn"
      | 0, (None | Some []) ->
          fail "no prod caller and no \"Test-only:\" reason naming a file"
      | 0, Some files ->
          List.iter
            (fun f ->
              if not (List.mem f users) then
                fail "its reason names %s, which does not use it" f)
            files
      | _, Some _ -> fail "has a prod caller but a \"Test-only:\" reason"
      | _, None -> ())
    rows;
  let count pred = List.length (List.filter pred rows) in
  Printf.printf
    "%d exported values; %d with no caller outside their module (%d of \
     them unused in it too); %d more used only by tests and tools\n"
    (List.length rows)
    (count (fun (p, t, _, _, _, _) -> p = 0 && t = 0))
    (count (fun (p, t, o, _, _, _) -> p = 0 && t = 0 && o = 0))
    (count (fun (p, t, _, _, _, _) -> p = 0 && t > 0));
  (* optional parameters: call sites that set each, per group, counting
     a forwarded parameter wherever its forwarder's is set *)
  let direct = Hashtbl.create 64 and into = Hashtbl.create 16 in
  List.iter
    (fun (_, _, _, group, u) ->
      Hashtbl.iter
        (fun k n ->
          let a =
            match Hashtbl.find_opt direct k with
            | Some a -> a
            | None ->
                let a = Array.make 3 0 in
                Hashtbl.replace direct k a;
                a
          in
          a.(group) <- a.(group) + n)
        u.sets;
      List.iter (fun (src, dst) -> Hashtbl.add into dst src) !(u.forwards))
    impls;
  let rec setters seen k =
    if List.mem k seen then Array.make 3 0
    else begin
      let n =
        Array.copy
          (Option.value ~default:(Array.make 3 0) (Hashtbl.find_opt direct k))
      in
      List.iter
        (fun src -> Array.iteri (fun g m -> n.(g) <- n.(g) + m) (setters (k :: seen) src))
        (Hashtbl.find_all into k);
      n
    end
  in
  let optionals =
    Hashtbl.fold
      (fun unit values acc ->
        List.concat_map
          (fun e ->
            List.map
              (fun l ->
                let n = setters [] (unit, e.name, l) in
                (n.(0) + n.(1) > 0, display unit ^ "." ^ e.name, l, n))
              e.labels)
          values
        @ acc)
      units []
    |> List.sort compare
  in
  Printf.printf "\n%5s %5s %5s  optional parameter\n" "prod" "bench" "test";
  List.iter
    (fun (set, v, l, n) ->
      Printf.printf "%5d %5d %5d  %s ?%s\n" n.(0) n.(1) n.(2) v l;
      if not set then
        fail "%s ?%s: set by no call site in bin/, lib/, bench/, examples/ or svcbench/"
          v l)
    optionals;
  Printf.printf
    "%d optional parameters on lib/ exports; %d set by no caller; %d set \
     only by tests\n"
    (List.length optionals)
    (List.length
       (List.filter (fun (_, _, _, n) -> Array.for_all (( = ) 0) n) optionals))
    (List.length (List.filter (fun (set, _, _, _) -> not set) optionals));
  match List.rev !failures with
  | [] -> ()
  | fs ->
      Printf.printf "\n%d gate failures:\n" (List.length fs);
      List.iter (Printf.printf "FAIL %s\n") fs;
      exit 1
