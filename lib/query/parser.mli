(** Textual query DSL — a Sonata-flavoured front-end.

    Grammar:
    {v
      query    := chain ('||' chain)* ('=>' combine)?
      chain    := prim ('|' prim)*
      prim     := filter(pred, ...) | map(key, ...)
                | distinct(key, ...) | reduce(key, ..., agg)
      agg      := count | sum <field> | max <field>
      key      := <field> ('&' INT)?
      pred     := count CMP INT | <field> ('&' INT)? CMP value
      value    := INT | IPv4 | tcp|udp|icmp|syn|synack|ack|fin|rst|psh
      combine  := (sub | min | pair) '(' count CMP INT ')'
    v} *)

exception Parse_error of string

(** Parse a query; defaults: id 0, name "adhoc", the paper's 100 ms
    window.  The result is validated.
    @raise Parse_error on syntax or validation errors.
    @raise Lexer.Lex_error on bad tokens. *)
val parse :
  ?id:int -> ?name:string -> ?description:string -> ?window:float -> string ->
  Ast.t

(** Result-typed wrapper collecting lex and parse errors. *)
val parse_result :
  ?id:int -> ?name:string -> ?description:string -> ?window:float -> string ->
  (Ast.t, string) result
