(** Cross-query conflicts (NA060–NA061).

    Two deployed queries with the same primitive structure compete for
    the same newton_init classifier entries and duplicate every sketch.
    An exact structural duplicate is pure waste (NA061, info); the
    same shape with different thresholds usually means one intent
    deployed twice with inconsistent tuning (NA060, warning). *)

open Newton_query

let name = "conflicts"
let doc = "duplicate and threshold-divergent co-deployed queries"
let codes = [ "NA060"; "NA061" ]

(* Thresholds erased: queries that differ only in threshold values get
   equal shapes. *)
let zero_pred = function
  | Ast.Result_cmp { op; _ } -> Ast.Result_cmp { op; value = 0 }
  | Ast.Cmp _ as p -> p

let zero_prim = function
  | Ast.Filter preds -> Ast.Filter (List.map zero_pred preds)
  | p -> p

let shape (q : Ast.t) =
  ( List.map (List.map zero_prim) q.Ast.branches,
    Option.map
      (fun c -> { c with Ast.threshold = zero_pred c.Ast.threshold })
      q.Ast.combine )

let structure (q : Ast.t) = (q.Ast.branches, q.Ast.combine)

let run (ctx : Pass.ctx) =
  let query = ctx.Pass.query in
  List.concat_map
    (fun (p : Pass.peer) ->
      let peer = p.Pass.p_query in
      if peer.Ast.id = query.Ast.id && peer.Ast.name = query.Ast.name then []
      else if structure peer = structure query then
        [
          Diag.make ~code:"NA061" ~severity:Diag.Info ~query
            ~hint:"reuse the existing deployment's reports"
            (Printf.sprintf "exact duplicate of deployed query %s(Q%d)"
               peer.Ast.name peer.Ast.id);
        ]
      else if shape peer = shape query then
        [
          Diag.make ~code:"NA060" ~severity:Diag.Warning ~query
            ~hint:"deploy one query with the stricter threshold"
            (Printf.sprintf
               "same structure as deployed query %s(Q%d), thresholds differ"
               peer.Ast.name peer.Ast.id);
        ]
      else [])
    ctx.Pass.peers
