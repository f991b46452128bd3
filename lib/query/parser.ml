(** Textual query DSL — a Sonata-flavoured front-end for operators.

    Grammar (see also the CLI's [--query] option):
    {v
      query    := chain ('||' chain)* ('=>' combine)?
      chain    := prim ('|' prim)*
      prim     := filter(pred (',' | '&&') pred ...)
                | map(key, ...)
                | distinct(key, ...)
                | reduce(key, ..., agg)
      agg      := count | sum field | max field
      key      := field ('&' INT)?
      pred     := count CMP INT
                | field ('&' INT)? CMP value
      value    := INT | IPv4 | tcp | udp | icmp | syn | synack | ack | fin
      combine  := (sub | min | pair) '(' count CMP INT ')'
      field    := sip dip proto sport dport tcp.flags tcp.seq tcp.ack
                  len payload_len ttl dns.qr dns.ancount ig_port
      CMP      := == != > >= < <=
    v}

    Examples:
    {v
      filter(proto == udp, dport == 53) | map(dip) | reduce(dip, count) | filter(count > 100) | map(dip)

      filter(tcp.flags == syn) | map(dip) | reduce(dip, count)
        || filter(tcp.flags & 0x1 == fin) | map(dip) | reduce(dip, count)
        => sub(count > 25)
    v} *)

open Newton_packet
open Lexer

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

type state = { mutable toks : token list }

let peek st = match st.toks with [] -> EOF | t :: _ -> t

let advance st = match st.toks with [] -> () | _ :: rest -> st.toks <- rest

let expect st tok =
  let got = peek st in
  if got = tok then advance st
  else fail "expected %s, got %s" (token_to_string tok) (token_to_string got)

(* Field names, allowing dotted forms (tcp.flags, dns.qr). *)
let parse_field st =
  match peek st with
  | IDENT a -> (
      advance st;
      match peek st with
      | DOT -> (
          advance st;
          match peek st with
          | IDENT b -> (
              advance st;
              let name = a ^ "." ^ b in
              match Field.of_string name with
              | f -> f
              | exception Invalid_argument _ -> fail "unknown field %s" name)
          | t -> fail "expected field component after '.', got %s" (token_to_string t))
      | _ -> (
          match Field.of_string a with
          | f -> f
          | exception Invalid_argument _ -> fail "unknown field %s" a))
  | t -> fail "expected a field name, got %s" (token_to_string t)

let value_aliases =
  [ ("tcp", Field.Protocol.tcp); ("udp", Field.Protocol.udp);
    ("icmp", Field.Protocol.icmp); ("icmpv6", Field.Protocol.icmpv6);
    ("gre", Field.Protocol.gre); ("syn", Field.Tcp_flag.syn);
    ("synack", Field.Tcp_flag.syn_ack); ("ack", Field.Tcp_flag.ack);
    ("fin", Field.Tcp_flag.fin); ("rst", Field.Tcp_flag.rst);
    ("psh", Field.Tcp_flag.psh) ]

let parse_value st =
  match peek st with
  | INT v -> advance st; v
  | IP v -> advance st; v
  | IDENT a -> (
      match List.assoc_opt a value_aliases with
      | Some v -> advance st; v
      | None -> fail "unknown value %s (use a number, an IPv4, or %s)" a
                  (String.concat "/" (List.map fst value_aliases)))
  | t -> fail "expected a value, got %s" (token_to_string t)

let parse_cmp st =
  match peek st with
  | EQ -> advance st; Ast.Eq
  | NEQ -> advance st; Ast.Neq
  | GT -> advance st; Ast.Gt
  | GE -> advance st; Ast.Ge
  | LT -> advance st; Ast.Lt
  | LE -> advance st; Ast.Le
  | t -> fail "expected a comparison operator, got %s" (token_to_string t)

(* key := field ('&' INT)? *)
let parse_key st =
  let f = parse_field st in
  match peek st with
  | AMP -> (
      advance st;
      match peek st with
      | INT m -> advance st; Ast.key ~mask:m f
      | t -> fail "expected a mask after '&', got %s" (token_to_string t))
  | _ -> Ast.key f

(* pred := count CMP INT | field ('&' INT)? CMP value *)
let parse_pred st =
  match peek st with
  | IDENT "count" ->
      advance st;
      let op = parse_cmp st in
      let value = parse_value st in
      Ast.Result_cmp { op; value }
  | _ ->
      let k = parse_key st in
      let op = parse_cmp st in
      let value = parse_value st in
      Ast.Cmp { field = k.Ast.field; mask = k.Ast.mask; op; value = value land k.Ast.mask }

let rec parse_list st parse_item sep_ok =
  let item = parse_item st in
  match peek st with
  | COMMA | AMP when sep_ok (peek st) ->
      advance st;
      item :: parse_list st parse_item sep_ok
  | _ -> [ item ]

(* agg := count | sum field | max field *)
let try_parse_agg st =
  match peek st with
  | IDENT "count" ->
      advance st;
      Some Ast.Count
  | IDENT "sum" ->
      advance st;
      Some (Ast.Sum_field (parse_field st))
  | IDENT "max" ->
      advance st;
      Some (Ast.Max_field (parse_field st))
  | _ -> None

let parse_prim st =
  match peek st with
  | IDENT "filter" ->
      advance st;
      expect st LPAREN;
      let preds = parse_list st parse_pred (fun t -> t = COMMA || t = AMP) in
      expect st RPAREN;
      Ast.Filter preds
  | IDENT "map" ->
      advance st;
      expect st LPAREN;
      let ks = parse_list st parse_key (fun t -> t = COMMA) in
      expect st RPAREN;
      Ast.Map ks
  | IDENT "distinct" ->
      advance st;
      expect st LPAREN;
      let ks = parse_list st parse_key (fun t -> t = COMMA) in
      expect st RPAREN;
      Ast.Distinct ks
  | IDENT "reduce" ->
      advance st;
      expect st LPAREN;
      (* keys then a trailing aggregation function *)
      let rec go acc =
        match try_parse_agg st with
        | Some agg ->
            expect st RPAREN;
            (List.rev acc, agg)
        | None -> (
            let k = parse_key st in
            match peek st with
            | COMMA ->
                advance st;
                go (k :: acc)
            | RPAREN -> fail "reduce needs an aggregation (count / sum f / max f)"
            | t -> fail "expected ',' or aggregation in reduce, got %s" (token_to_string t))
      in
      let keys, agg = go [] in
      if keys = [] then fail "reduce needs at least one key";
      Ast.Reduce { keys; agg }
  | t -> fail "expected filter/map/distinct/reduce, got %s" (token_to_string t)

let parse_chain st =
  let rec go acc =
    let p = parse_prim st in
    match peek st with
    | PIPE ->
        advance st;
        go (p :: acc)
    | _ -> List.rev (p :: acc)
  in
  go []

let parse_combine st =
  let op =
    match peek st with
    | IDENT "sub" -> advance st; Ast.Sub
    | IDENT "min" -> advance st; Ast.Min
    | IDENT "pair" -> advance st; Ast.Pair
    | t -> fail "expected sub/min/pair after '=>', got %s" (token_to_string t)
  in
  expect st LPAREN;
  let threshold =
    match parse_pred st with
    | Ast.Result_cmp _ as p -> p
    | Ast.Cmp _ -> fail "combine threshold must test 'count'"
  in
  expect st RPAREN;
  { Ast.op; threshold }

(** Parse a query from its textual form.  [id]/[name]/[description]
    default to generic values; [window] to the paper's 100 ms.
    Raises {!Parse_error} or {!Lexer.Lex_error} on bad input, and
    [Parse_error] if the resulting query fails {!Ast.validate}. *)
let parse ?(id = 0) ?(name = "adhoc") ?(description = "ad-hoc query")
    ?(window = Ast.default_window) src =
  let st = { toks = Lexer.tokenize src } in
  let rec branches acc =
    let b = parse_chain st in
    match peek st with
    | PARALLEL ->
        advance st;
        branches (b :: acc)
    | _ -> List.rev (b :: acc)
  in
  let bs = branches [] in
  let combine =
    match peek st with
    | ARROW ->
        advance st;
        Some (parse_combine st)
    | _ -> None
  in
  expect st EOF;
  let q = Ast.make ~window ?combine ~id ~name ~description bs in
  match Ast.validate q with
  | [] -> q
  | errs ->
      fail "invalid query: %s" (String.concat "; " (List.map Ast.error_to_string errs))

(** Result-typed wrapper. *)
let parse_result ?id ?name ?description ?window src =
  match parse ?id ?name ?description ?window src with
  | q -> Ok q
  | exception Parse_error m -> Error m
  | exception Lexer.Lex_error { pos; msg } ->
      Error (Printf.sprintf "lex error at %d: %s" pos msg)
