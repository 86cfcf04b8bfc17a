module Guard = Nxc_guard

exception Parse_error of string

(* internal escape carrying the typed error; converted to [result] or
   re-raised as [Parse_error] at the public boundary *)
exception Err of Guard.Error.t

let err ?line ?column fmt =
  Format.kasprintf
    (fun s -> raise (Err (Guard.Error.invalid_input ?line ?column s)))
    fmt

(* hard input caps: parsing is linear, but everything downstream
   (truth tables, covers) is not — reject absurd inputs at the door *)
let max_expr_bytes = 65_536
let max_pla_line_bytes = 4_096
let max_pla_outputs = 65_536

let check_ascii ?line s =
  String.iteri
    (fun i c ->
      let code = Char.code c in
      if (code < 32 && c <> '\t' && c <> '\n' && c <> '\r') || code > 126 then
        err ?line ~column:(i + 1) "non-ASCII or control byte 0x%02x" code)
    s

(* ------------------------------------------------------------------ *)
(* Expression syntax                                                   *)
(* ------------------------------------------------------------------ *)

type token =
  | Tvar of int (* 0-based *)
  | Tconst of bool
  | Tplus
  | Tstar
  | Txor
  | Tnot (* prefix ~ *)
  | Tprime (* postfix ' *)
  | Tlpar
  | Trpar

(* tokens carry their 1-based column so parse errors can point at the
   offending byte *)
let tokenize s =
  if String.length s > max_expr_bytes then
    err "expression longer than %d bytes" max_expr_bytes;
  check_ascii s;
  let toks = ref [] in
  let i = ref 0 in
  let len = String.length s in
  while !i < len do
    let c = s.[!i] in
    let col = !i + 1 in
    let push t = toks := (t, col) :: !toks in
    (match c with
    | ' ' | '\t' | '\n' | '\r' -> ()
    | '+' -> push Tplus
    | '*' | '.' | '&' -> push Tstar
    | '^' -> push Txor
    | '~' | '!' -> push Tnot
    | '\'' -> push Tprime
    | '(' -> push Tlpar
    | ')' -> push Trpar
    | '0' -> push (Tconst false)
    | '1' -> push (Tconst true)
    | 'x' | 'X' ->
        let j = ref (!i + 1) in
        while !j < len && s.[!j] >= '0' && s.[!j] <= '9' do
          incr j
        done;
        if !j = !i + 1 then err ~column:col "variable needs an index";
        let idx =
          match int_of_string_opt (String.sub s (!i + 1) (!j - !i - 1)) with
          | Some v -> v
          | None -> err ~column:col "variable index out of range"
        in
        if idx < 1 then err ~column:col "variables are 1-based";
        if idx > Cube.max_vars then
          err ~column:col "variable index %d exceeds the %d-variable limit"
            idx Cube.max_vars;
        push (Tvar (idx - 1));
        i := !j - 1
    | c -> err ~column:col "unexpected character %c" c);
    incr i
  done;
  List.rev !toks

(* AST *)
type ast =
  | Var of int
  | Const of bool
  | Not of ast
  | And of ast * ast
  | Or of ast * ast
  | Xor of ast * ast

(* grammar: or := xor (+ xor)* ; xor := and (^ and)* ;
   and := unary (unary | * unary)* ; unary := ~ unary | atom '* ;
   atom := var | const | ( or ) *)
let parse_tokens toks =
  let toks = ref toks in
  let peek () = match !toks with [] -> None | (t, _) :: _ -> Some t in
  let col () = match !toks with [] -> None | (_, c) :: _ -> Some c in
  let advance () = match !toks with [] -> () | _ :: r -> toks := r in
  let perr fmt =
    match col () with
    | Some column -> err ~column fmt
    | None -> err fmt
  in
  let rec p_or () =
    let a = ref (p_xor ()) in
    let rec loop () =
      match peek () with
      | Some Tplus ->
          advance ();
          a := Or (!a, p_xor ());
          loop ()
      | _ -> ()
    in
    loop ();
    !a
  and p_xor () =
    let a = ref (p_and ()) in
    let rec loop () =
      match peek () with
      | Some Txor ->
          advance ();
          a := Xor (!a, p_and ());
          loop ()
      | _ -> ()
    in
    loop ();
    !a
  and p_and () =
    let a = ref (p_unary ()) in
    let rec loop () =
      match peek () with
      | Some Tstar ->
          advance ();
          a := And (!a, p_unary ());
          loop ()
      | Some (Tvar _ | Tconst _ | Tnot | Tlpar) ->
          a := And (!a, p_unary ());
          loop ()
      | _ -> ()
    in
    loop ();
    !a
  and p_unary () =
    match peek () with
    | Some Tnot ->
        advance ();
        Not (p_unary ())
    | _ -> p_postfix (p_atom ())
  and p_postfix a =
    match peek () with
    | Some Tprime ->
        advance ();
        p_postfix (Not a)
    | _ -> a
  and p_atom () =
    match peek () with
    | Some (Tvar v) ->
        advance ();
        Var v
    | Some (Tconst b) ->
        advance ();
        Const b
    | Some Tlpar ->
        advance ();
        let a = p_or () in
        (match peek () with
        | Some Trpar -> advance ()
        | _ -> perr "missing closing parenthesis");
        a
    | _ -> perr "expected a variable, constant or parenthesis"
  in
  let a = p_or () in
  if !toks <> [] then perr "trailing tokens";
  a

let rec max_var = function
  | Var v -> v + 1
  | Const _ -> 0
  | Not a -> max_var a
  | And (a, b) | Or (a, b) | Xor (a, b) -> max (max_var a) (max_var b)

let rec eval_ast a m =
  match a with
  | Var v -> m land (1 lsl v) <> 0
  | Const b -> b
  | Not a -> not (eval_ast a m)
  | And (a, b) -> eval_ast a m && eval_ast b m
  | Or (a, b) -> eval_ast a m || eval_ast b m
  | Xor (a, b) -> eval_ast a m <> eval_ast b m

let arity_of ?n ~table ast =
  let used = max_var ast in
  let n =
    match n with
    | Some n ->
        if n < used then err "forced arity smaller than used variables";
        n
    | None -> used
  in
  if table && n > Truth_table.max_vars then
    err "%d variables exceed the %d-variable truth-table limit" n
      Truth_table.max_vars;
  n

let expr_impl ?n s =
  let ast = parse_tokens (tokenize s) in
  let n = arity_of ?n ~table:true ast in
  Boolfunc.of_fun_int ~name:s n (eval_ast ast)

(* ------------------------------------------------------------------ *)
(* PLA                                                                 *)
(* ------------------------------------------------------------------ *)

type pla = {
  inputs : int;
  outputs : int;
  input_labels : string list option;
  output_labels : string list option;
  on_sets : Cover.t array;
  dc_sets : Cover.t array;
}

let pla_of_string_impl text =
  (* keep 1-based line numbers through the comment/blank filtering *)
  let lines =
    String.split_on_char '\n' text
    |> List.mapi (fun i l -> (i + 1, l))
    |> List.filter_map (fun (ln, l) ->
           if String.length l > max_pla_line_bytes then
             err ~line:ln "line longer than %d bytes" max_pla_line_bytes;
           check_ascii ~line:ln l;
           let l = String.trim l in
           if l = "" || l.[0] = '#' then None else Some (ln, l))
  in
  let inputs = ref None
  and outputs = ref None
  and ilb = ref None
  and olb = ref None in
  let rows = ref [] in
  let int_directive ln name v ~min ~max_ ~limit_what =
    match int_of_string_opt v with
    | None -> err ~line:ln "%s expects an integer, got %S" name v
    | Some x when x < min -> err ~line:ln "%s %d must be at least %d" name x min
    | Some x when x > max_ ->
        err ~line:ln "%s %d exceeds the %s limit of %d" name x limit_what max_
    | Some x -> x
  in
  let directive ln line =
    match String.split_on_char ' ' line |> List.filter (( <> ) "") with
    | ".i" :: v :: _ ->
        inputs :=
          Some
            (int_directive ln ".i" v ~min:1 ~max_:Truth_table.max_vars
               ~limit_what:"truth-table")
    | ".o" :: v :: _ ->
        outputs :=
          Some
            (int_directive ln ".o" v ~min:1 ~max_:max_pla_outputs
               ~limit_what:"output-count")
    | [ ".i" ] -> err ~line:ln ".i needs a value"
    | [ ".o" ] -> err ~line:ln ".o needs a value"
    | ".p" :: _ | ".type" :: _ -> ()
    | ".ilb" :: names -> ilb := Some names
    | ".ob" :: names -> olb := Some names
    | ".e" :: _ | ".end" :: _ -> ()
    | d :: _ -> err ~line:ln "unknown PLA directive %s" d
    | [] -> ()
  in
  List.iter
    (fun (ln, line) ->
      if line.[0] = '.' then directive ln line else rows := (ln, line) :: !rows)
    lines;
  let ni = match !inputs with Some n -> n | None -> err "missing .i" in
  let no = match !outputs with Some n -> n | None -> err "missing .o" in
  (match !ilb with
  | Some names when List.length names <> ni ->
      err ".ilb has %d names for %d inputs" (List.length names) ni
  | _ -> ());
  (match !olb with
  | Some names when List.length names <> no ->
      err ".ob has %d names for %d outputs" (List.length names) no
  | _ -> ());
  let on = Array.make no [] and dc = Array.make no [] in
  List.iter
    (fun (ln, row) ->
      let parts = String.split_on_char ' ' row |> List.filter (( <> ) "") in
      let ipart, opart =
        match parts with
        | [ i; o ] -> (i, o)
        | [ io ] when String.length io = ni + no ->
            (String.sub io 0 ni, String.sub io ni no)
        | _ -> err ~line:ln "malformed PLA row %S" row
      in
      if String.length ipart <> ni then
        err ~line:ln "input part %S has %d characters, .i says %d" ipart
          (String.length ipart) ni;
      if String.length opart <> no then
        err ~line:ln "output part %S has %d characters, .o says %d" opart
          (String.length opart) no;
      let lits = ref [] in
      String.iteri
        (fun i c ->
          match c with
          | '1' -> lits := (i, Cube.Pos) :: !lits
          | '0' -> lits := (i, Cube.Neg) :: !lits
          | '-' | '2' -> ()
          | c -> err ~line:ln ~column:(i + 1) "bad input character %c" c)
        ipart;
      let cube = Cube.of_literals ni !lits in
      String.iteri
        (fun o c ->
          match c with
          | '1' | '4' -> on.(o) <- cube :: on.(o)
          | '0' -> ()
          | '-' | '~' | '2' | '3' -> dc.(o) <- cube :: dc.(o)
          | c ->
              err ~line:ln ~column:(ni + o + 1) "bad output character %c" c)
        opart)
    (List.rev !rows);
  { inputs = ni;
    outputs = no;
    input_labels = !ilb;
    output_labels = !olb;
    on_sets = Array.map (fun cs -> Cover.make ni cs) on;
    dc_sets = Array.map (fun cs -> Cover.make ni cs) dc }

(* ------------------------------------------------------------------ *)
(* Public boundary: result variants and legacy exception variants      *)
(* ------------------------------------------------------------------ *)

let wrap f = match f () with v -> Ok v | exception Err e -> Error e

let legacy f =
  match f () with
  | v -> v
  | exception Err e -> raise (Parse_error (Guard.Error.to_string e))

let expr_result s = wrap (fun () -> expr_impl s)
let expr ?n s = legacy (fun () -> expr_impl ?n s)
let pla_of_string_result text = wrap (fun () -> pla_of_string_impl text)
