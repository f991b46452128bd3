(* The deployment admission gate's output, for a golden diff.

   Each of the seventeen catalog intents is admitted against the other
   sixteen as the deployed set, with the placement facts of a linear:4
   topology at twelve stages per switch — the path [Deploy.deploy_checked]
   runs before installing.  One line per intent: its id and name, then
   [Check.report_to_json ~witness:true] of the admission diagnostics,
   so every NA091/NA092 witness packet is pinned byte for byte. *)

module Check = Newton_analysis.Check
module Deploy = Newton_controller.Deploy
module Placement = Newton_controller.Placement
module Compose = Newton_compiler.Compose
module Ast = Newton_query.Ast

let stages_per_switch = 12

let () =
  let topo = Newton_network.Topo.linear 4 in
  let catalog =
    List.map
      (fun q -> (q, Compose.compile q))
      (Newton_query.Catalog.all () @ Newton_query.Catalog.extras ())
  in
  List.iter
    (fun ((q : Ast.t), compiled) ->
      let deployed = List.filter (fun (p, _) -> p != q) catalog in
      let target =
        Deploy.target_of_placement
          (Placement.place ~stages_per_switch ~topo compiled)
      in
      let diags = Check.admission ~target ~deployed compiled in
      Printf.printf "Q%d %s %s\n" q.Ast.id q.Ast.name
        (Newton_util.Json.to_string (Check.report_to_json ~witness:true diags)))
    catalog
