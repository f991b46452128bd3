(** Lexer + recursive-descent parser for the emitted P4 subset.

    The grammar is exactly what {!Newton_p4gen.Emit} writes: header and
    struct declarations, one parser with select transitions, controls
    holding register/action/table declarations plus an [apply] block,
    and a trailing package instantiation (skipped).  Unknown syntax
    raises {!Parse_error} with position context — the differential
    harness treats that as emission drift, not something to recover
    from. *)

open P4ast

exception Parse_error of { line : int; msg : string }

let fail line fmt =
  Printf.ksprintf (fun msg -> raise (Parse_error { line; msg })) fmt

(* ---------------- lexer ---------------- *)

type token =
  | Tident of string
  | Tint of int
  | Tsym of string  (* punctuation / operators, possibly two-char *)

type lexed = { tok : token; tline : int }

let is_digit c = c >= '0' && c <= '9'

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || is_digit c

let tokenize src =
  let n = String.length src in
  let out = ref [] in
  let line = ref 1 in
  let i = ref 0 in
  let push tok = out := { tok; tline = !line } :: !out in
  while !i < n do
    let c = src.[!i] in
    if c = '\n' then (incr line; incr i)
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '#' then begin
      (* preprocessor include: skip to end of line *)
      while !i < n && src.[!i] <> '\n' do incr i done
    end
    else if c = '/' && !i + 1 < n && src.[!i + 1] = '/' then begin
      while !i < n && src.[!i] <> '\n' do incr i done
    end
    else if c = '/' && !i + 1 < n && src.[!i + 1] = '*' then begin
      i := !i + 2;
      while !i + 1 < n && not (src.[!i] = '*' && src.[!i + 1] = '/') do
        if src.[!i] = '\n' then incr line;
        incr i
      done;
      i := min n (!i + 2)
    end
    else if is_digit c then begin
      if c = '0' && !i + 1 < n && (src.[!i + 1] = 'x' || src.[!i + 1] = 'X')
      then begin
        let start = !i in
        i := !i + 2;
        while
          !i < n
          && (is_digit src.[!i]
             || (src.[!i] >= 'a' && src.[!i] <= 'f')
             || (src.[!i] >= 'A' && src.[!i] <= 'F'))
        do incr i done;
        push (Tint (int_of_string (String.sub src start (!i - start))))
      end
      else begin
        let start = !i in
        while !i < n && is_digit src.[!i] do incr i done;
        (* width-prefixed literals (8w0x..) never appear in emitted code *)
        push (Tint (int_of_string (String.sub src start (!i - start))))
      end
    end
    else if is_ident_start c then begin
      let start = !i in
      while !i < n && is_ident_char src.[!i] do incr i done;
      push (Tident (String.sub src start (!i - start)))
    end
    else begin
      let two =
        if !i + 1 < n then String.sub src !i 2 else ""
      in
      (* the one three-char operator: [|+|], saturating add *)
      if !i + 2 < n && String.sub src !i 3 = "|+|" then begin
        push (Tsym "|+|"); i := !i + 3
      end
      else
        match two with
        (* note: no ">>" — it only occurs closing register<bit<32>>, and
           emitted expressions never right-shift *)
        | "==" | "!=" | "<=" | ">=" | "<<" | "&&" | "||" ->
            push (Tsym two); i := !i + 2
        | _ -> push (Tsym (String.make 1 c)); incr i
    end
  done;
  Array.of_list (List.rev !out)

(* ---------------- token stream ---------------- *)

type stream = { toks : lexed array; mutable pos : int }

let cur s =
  if s.pos < Array.length s.toks then Some s.toks.(s.pos) else None

let cur_line s =
  match cur s with Some l -> l.tline | None -> -1

let tok_to_string = function
  | Tident id -> id
  | Tint v -> string_of_int v
  | Tsym sy -> sy

let advance s = s.pos <- s.pos + 1

let peek_tok s = Option.map (fun l -> l.tok) (cur s)

let peek2_tok s =
  if s.pos + 1 < Array.length s.toks then Some s.toks.(s.pos + 1).tok
  else None

let eat_sym s sy =
  match peek_tok s with
  | Some (Tsym x) when x = sy -> advance s
  | Some t -> fail (cur_line s) "expected '%s', got '%s'" sy (tok_to_string t)
  | None -> fail (cur_line s) "expected '%s' at end of input" sy

let eat_ident s =
  match peek_tok s with
  | Some (Tident id) -> advance s; id
  | Some t -> fail (cur_line s) "expected identifier, got '%s'" (tok_to_string t)
  | None -> fail (cur_line s) "expected identifier at end of input"

let eat_kw s kw =
  let id = eat_ident s in
  if id <> kw then fail (cur_line s) "expected '%s', got '%s'" kw id

let eat_int s =
  match peek_tok s with
  | Some (Tint v) -> advance s; v
  | Some t -> fail (cur_line s) "expected integer, got '%s'" (tok_to_string t)
  | None -> fail (cur_line s) "expected integer at end of input"

let sym_is s sy =
  match peek_tok s with Some (Tsym x) -> x = sy | _ -> false

let ident_is s id =
  match peek_tok s with Some (Tident x) -> x = id | _ -> false

(* bit<N> *)
let eat_bit_type s =
  eat_kw s "bit";
  eat_sym s "<";
  let w = eat_int s in
  eat_sym s ">";
  w

(* ---------------- expressions ---------------- *)

(* a.b.c — possibly ending in isValid() *)
let eat_path s =
  let rec go acc =
    let id = eat_ident s in
    if sym_is s "." then (advance s; go (id :: acc))
    else List.rev (id :: acc)
  in
  go []

let rec parse_expr s = parse_cond s

and parse_cond s =
  let c = parse_binop s 0 in
  if sym_is s "?" then begin
    advance s;
    let a = parse_expr s in
    eat_sym s ":";
    let b = parse_cond s in
    Cond (c, a, b)
  end
  else c

(* precedence-climbing over left-associative binary operators *)
and binop_levels =
  [| [ ("||", Lor) ];
     [ ("&&", Land) ];
     [ ("|", Bor) ];
     [ ("^", Bxor) ];
     [ ("&", Band) ];
     [ ("==", Eq); ("!=", Ne) ];
     [ ("<", Lt); (">", Gt); ("<=", Le); (">=", Ge) ];
     [ ("<<", Shl) ];
     [ ("+", Add); ("-", Sub); ("|+|", Sat_add) ] |]

and parse_binop s level =
  if level >= Array.length binop_levels then parse_primary s
  else begin
    let ops = binop_levels.(level) in
    let lhs = ref (parse_binop s (level + 1)) in
    let continue = ref true in
    while !continue do
      match peek_tok s with
      | Some (Tsym sy) when List.mem_assoc sy ops ->
          advance s;
          let rhs = parse_binop s (level + 1) in
          lhs := Binop (List.assoc sy ops, !lhs, rhs)
      | _ -> continue := false
    done;
    !lhs
  end

and parse_primary s =
  match peek_tok s with
  | Some (Tint v) -> advance s; Int v
  | Some (Tsym "{") ->
      advance s;
      let rec go acc =
        let e = parse_expr s in
        if sym_is s "," then (advance s; go (e :: acc))
        else (eat_sym s "}"; List.rev (e :: acc))
      in
      Tuple (go [])
  | Some (Tsym "(") ->
      advance s;
      if ident_is s "bit" then begin
        (* cast: (bit<N>) expr *)
        let w = eat_bit_type s in
        eat_sym s ")";
        Cast (w, parse_primary s)
      end
      else begin
        let e = parse_expr s in
        eat_sym s ")";
        e
      end
  | Some (Tident _) ->
      let path = eat_path s in
      (match List.rev path, peek_tok s with
      | "isValid" :: rest, Some (Tsym "(") ->
          advance s;
          eat_sym s ")";
          Is_valid (List.rev rest)
      | _ -> Ref path)
  | Some t -> fail (cur_line s) "expected expression, got '%s'" (tok_to_string t)
  | None -> fail (cur_line s) "expected expression at end of input"

let parse_args s =
  eat_sym s "(";
  if sym_is s ")" then (advance s; [])
  else begin
    let rec go acc =
      let e = parse_expr s in
      if sym_is s "," then (advance s; go (e :: acc))
      else (eat_sym s ")"; List.rev (e :: acc))
    in
    go []
  end

(* ---------------- statements ---------------- *)

let rec parse_stmt s =
  match peek_tok s with
  | Some (Tident "bit") ->
      let width = eat_bit_type s in
      let name = eat_ident s in
      let init =
        if sym_is s "=" then (advance s; Some (parse_expr s)) else None
      in
      eat_sym s ";";
      Decl { width; name; init }
  | Some (Tident "if") ->
      advance s;
      eat_sym s "(";
      let c = parse_expr s in
      eat_sym s ")";
      let then_ = parse_block s in
      let else_ =
        if ident_is s "else" then begin
          advance s;
          if ident_is s "if" then [ parse_stmt s ] else parse_block s
        end
        else []
      in
      If (c, then_, else_)
  | Some (Tident "digest") when peek2_tok s = Some (Tsym "<") ->
      advance s;
      eat_sym s "<";
      let g = eat_ident s in
      eat_sym s ">";
      let args = parse_args s in
      eat_sym s ";";
      Call { path = [ "digest" ]; generic = Some g; args }
  | Some (Tident _) ->
      let path = eat_path s in
      if sym_is s "=" then begin
        advance s;
        let e = parse_expr s in
        eat_sym s ";";
        Assign (path, e)
      end
      else begin
        let args = parse_args s in
        eat_sym s ";";
        Call { path; generic = None; args }
      end
  | Some t -> fail (cur_line s) "expected statement, got '%s'" (tok_to_string t)
  | None -> fail (cur_line s) "expected statement at end of input"

and parse_block s =
  eat_sym s "{";
  let rec go acc =
    if sym_is s "}" then (advance s; List.rev acc)
    else go (parse_stmt s :: acc)
  in
  go []

(* ---------------- declarations ---------------- *)

let parse_header s =
  let name = eat_ident s in
  eat_sym s "{";
  let fields = ref [] in
  while not (sym_is s "}") do
    let w = eat_bit_type s in
    let f = eat_ident s in
    eat_sym s ";";
    fields := (f, w) :: !fields
  done;
  advance s;
  { h_name = name; h_fields = List.rev !fields }

let parse_struct s =
  let name = eat_ident s in
  eat_sym s "{";
  let fields = ref [] in
  while not (sym_is s "}") do
    let fls = ref [] in
    while sym_is s "@" do
      advance s;
      let ann = eat_ident s in
      eat_sym s "(";
      let v = eat_int s in
      eat_sym s ")";
      if ann = "field_list" then fls := v :: !fls
    done;
    let ty =
      if ident_is s "bit" then `Bit (eat_bit_type s)
      else `Named (eat_ident s)
    in
    let f = eat_ident s in
    eat_sym s ";";
    fields :=
      { sf_name = f; sf_type = ty; sf_field_lists = List.rev !fls } :: !fields
  done;
  advance s;
  { s_name = name; s_fields = List.rev !fields }

(* skip a parenthesized parameter list without interpreting it *)
let skip_parens s =
  eat_sym s "(";
  let depth = ref 1 in
  while !depth > 0 do
    match peek_tok s with
    | Some (Tsym "(") -> advance s; incr depth
    | Some (Tsym ")") -> advance s; decr depth
    | Some _ -> advance s
    | None -> fail (cur_line s) "unbalanced parentheses"
  done

let parse_select_case s =
  (* keyset: INT | _ | ( pat, pat, ... ) | default *)
  let pat_one () =
    match peek_tok s with
    | Some (Tint v) -> advance s; P_int v
    | Some (Tident "_") -> advance s; P_any
    | Some t -> fail (cur_line s) "expected keyset element, got '%s'" (tok_to_string t)
    | None -> fail (cur_line s) "expected keyset element at end of input"
  in
  let pats =
    if ident_is s "default" then (advance s; `Default)
    else if sym_is s "(" then begin
      advance s;
      let rec go acc =
        let p = pat_one () in
        if sym_is s "," then (advance s; go (p :: acc))
        else (eat_sym s ")"; List.rev (p :: acc))
      in
      `Pats (go [])
    end
    else `Pats [ pat_one () ]
  in
  eat_sym s ":";
  let target = eat_ident s in
  eat_sym s ";";
  (pats, target)

let parse_state s =
  let name = eat_ident s in
  eat_sym s "{";
  let extracts = ref [] in
  let transition = ref T_accept in
  while not (sym_is s "}") do
    if ident_is s "transition" then begin
      advance s;
      if ident_is s "accept" then begin
        advance s; eat_sym s ";"; transition := T_accept
      end
      else if ident_is s "select" then begin
        advance s;
        eat_sym s "(";
        let rec go acc =
          let e = parse_expr s in
          if sym_is s "," then (advance s; go (e :: acc))
          else (eat_sym s ")"; List.rev (e :: acc))
        in
        let keys = go [] in
        let arity = List.length keys in
        eat_sym s "{";
        let cases = ref [] in
        while not (sym_is s "}") do
          match parse_select_case s with
          | `Default, target ->
              cases := (List.init arity (fun _ -> P_any), target) :: !cases
          | `Pats pats, target ->
              if List.length pats <> arity then
                fail (cur_line s) "select keyset arity mismatch";
              cases := (pats, target) :: !cases
        done;
        advance s;
        transition := T_select (keys, List.rev !cases)
      end
      else begin
        let target = eat_ident s in
        eat_sym s ";";
        transition := T_direct target
      end
    end
    else begin
      (* pkt.extract(hdr.x); *)
      let path = eat_path s in
      (match List.rev path with
      | "extract" :: _ -> ()
      | _ -> fail (cur_line s) "expected extract or transition in state %s" name);
      eat_sym s "(";
      let hdr = eat_path s in
      eat_sym s ")";
      eat_sym s ";";
      extracts := hdr :: !extracts
    end
  done;
  advance s;
  { ps_name = name; ps_extracts = List.rev !extracts; ps_transition = !transition }

let parse_parser s =
  let _name = eat_ident s in
  skip_parens s;
  eat_sym s "{";
  let states = ref [] in
  while not (sym_is s "}") do
    eat_kw s "state";
    states := parse_state s :: !states
  done;
  advance s;
  List.rev !states

let parse_action s =
  let name = eat_ident s in
  eat_sym s "(";
  let params = ref [] in
  if sym_is s ")" then advance s
  else begin
    let rec go () =
      let w = eat_bit_type s in
      let p = eat_ident s in
      params := (p, w) :: !params;
      if sym_is s "," then (advance s; go ()) else eat_sym s ")"
    in
    go ()
  end;
  let body = parse_block s in
  { a_name = name; a_params = List.rev !params; a_body = body }

let parse_table s =
  let name = eat_ident s in
  eat_sym s "{";
  let keys = ref [] in
  let actions = ref [] in
  let size = ref None in
  let default = ref "NoAction" in
  while not (sym_is s "}") do
    match eat_ident s with
    | "key" ->
        eat_sym s "=";
        eat_sym s "{";
        while not (sym_is s "}") do
          let e = parse_expr s in
          eat_sym s ":";
          let mk =
            match eat_ident s with
            | "exact" -> Exact
            | "ternary" -> Ternary
            | "range" -> Range
            | mk -> fail (cur_line s) "unknown match kind '%s'" mk
          in
          eat_sym s ";";
          keys := (e, mk) :: !keys
        done;
        advance s
    | "actions" ->
        eat_sym s "=";
        eat_sym s "{";
        while not (sym_is s "}") do
          let a = eat_ident s in
          eat_sym s ";";
          actions := a :: !actions
        done;
        advance s
    | "size" ->
        eat_sym s "=";
        size := Some (eat_int s);
        eat_sym s ";"
    | "default_action" ->
        eat_sym s "=";
        let a = eat_ident s in
        if sym_is s "(" then skip_parens s;
        eat_sym s ";";
        default := a
    | prop -> fail (cur_line s) "unknown table property '%s'" prop
  done;
  advance s;
  {
    t_name = name;
    t_keys = List.rev !keys;
    t_actions = List.rev !actions;
    t_size = !size;
    t_default = !default;
  }

let parse_control s =
  let name = eat_ident s in
  skip_parens s;
  eat_sym s "{";
  let registers = ref [] in
  let actions = ref [] in
  let tables = ref [] in
  let apply = ref [] in
  while not (sym_is s "}") do
    match peek_tok s with
    | Some (Tident "register") ->
        advance s;
        eat_sym s "<";
        let _w = eat_bit_type s in
        (* `>>` closing register<bit<32>> lexes as one `>` + one `>`
           only if unmerged; the lexer never merges `>>`, so: *)
        eat_sym s ">";
        eat_sym s "(";
        let n = eat_int s in
        eat_sym s ")";
        let rname = eat_ident s in
        eat_sym s ";";
        registers := (rname, n) :: !registers
    | Some (Tident "action") ->
        advance s;
        actions := parse_action s :: !actions
    | Some (Tident "table") ->
        advance s;
        tables := parse_table s :: !tables
    | Some (Tident "apply") ->
        advance s;
        apply := parse_block s
    | Some t ->
        fail (cur_line s) "unexpected '%s' in control %s" (tok_to_string t) name
    | None -> fail (cur_line s) "unterminated control %s" name
  done;
  advance s;
  {
    c_name = name;
    c_registers = List.rev !registers;
    c_actions = List.rev !actions;
    c_tables = List.rev !tables;
    c_apply = !apply;
  }

(* ---------------- top level ---------------- *)

let parse src =
  let s = { toks = tokenize src; pos = 0 } in
  let header_types = ref [] in
  let structs = ref [] in
  let parser_states = ref [] in
  let controls = ref [] in
  let stop = ref false in
  while not !stop do
    match peek_tok s with
    | None -> stop := true
    | Some (Tident "header") ->
        advance s;
        header_types := parse_header s :: !header_types
    | Some (Tident "struct") ->
        advance s;
        structs := parse_struct s :: !structs
    | Some (Tident "parser") ->
        advance s;
        parser_states := parse_parser s @ !parser_states
    | Some (Tident "control") ->
        advance s;
        controls := parse_control s :: !controls
    | Some (Tident _) ->
        (* package instantiation (V1Switch(...) main;) — skip to ';' *)
        advance s;
        if sym_is s "(" then skip_parens s;
        while not (sym_is s ";") && cur s <> None do advance s done;
        if sym_is s ";" then advance s
    | Some t -> fail (cur_line s) "unexpected top-level '%s'" (tok_to_string t)
  done;
  {
    header_types = List.rev !header_types;
    structs = List.rev !structs;
    parser_states = List.rev !parser_states;
    controls = List.rev !controls;
  }
