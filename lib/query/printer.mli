(** DSL printing — the inverse of {!Parser}: for any valid query,
    [Parser.parse (to_dsl q)] reconstructs the same branches and
    combine (ids, names and windows are metadata the text does not
    carry). *)

(** @raise Ast.Invalid for a combine with a field threshold. *)
val to_dsl : Ast.t -> string
