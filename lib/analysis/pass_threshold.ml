(** Threshold reachability (NA030–NA031).

    Tracks the range of the global result along each branch: a
    [reduce(count)] / [reduce(sum)] can reach any 31-bit value, a
    [reduce(max f)] is bounded by the field's width, and a [distinct]
    folds a Bloom bit (0 or 1).  A [Result_cmp] threshold that excludes
    the entire range can never fire (NA030); one that excludes nothing
    always fires and filters nothing (NA031).  The combine threshold is
    judged against the combined range: [Sub]/[Pair] report the left
    branch's aggregate, [Min] the smaller of both. *)

open Newton_query
open Newton_packet

let name = "threshold"
let doc = "unreachable and trivially-true aggregate thresholds"
let codes = [ "NA030"; "NA031" ]

(* The largest aggregate a threshold is judged against: a count or a
   sum may reach any 31-bit value.  A word cell saturates at
   [Alu.cell_max] = 2^32-1, above this, so a threshold value up to
   [acc_max] compares the same on the saturated cell as on the exact
   aggregate: past the cap both exceed it.  A larger [>], [>=] or [==]
   threshold can never hold here (NA030), a larger [<] or [<=] one
   always holds (NA031). *)
let acc_max = 0x7FFFFFFF

type range = { lo : int; hi : int }

let after_agg = function
  | Ast.Count | Ast.Sum_field _ -> { lo = 0; hi = acc_max }
  | Ast.Max_field f -> { lo = 0; hi = Field.full_mask f }

let clip r op value =
  match op with
  | Ast.Eq -> { lo = max r.lo value; hi = min r.hi value }
  | Ast.Neq -> r (* at most one point leaves; the range survives *)
  | Ast.Gt -> { r with lo = max r.lo (value + 1) }
  | Ast.Ge -> { r with lo = max r.lo value }
  | Ast.Lt -> { r with hi = min r.hi (value - 1) }
  | Ast.Le -> { r with hi = min r.hi value }

let judge ~query ~span r op value =
  let clipped = clip r op value in
  let pretty =
    Printf.sprintf "count %s %d" (Ast.cmp_to_string op) value
  in
  if clipped.lo > clipped.hi then
    [
      Diag.make ~code:"NA030" ~severity:Diag.Error ~span ~query
        ~hint:
          (Printf.sprintf
             "the aggregate here stays within [%d, %d]; lower the threshold"
             r.lo r.hi)
        (Printf.sprintf "threshold %s can never hold" pretty);
    ]
  else if op <> Ast.Neq && clipped.lo = r.lo && clipped.hi = r.hi then
    [
      Diag.make ~code:"NA031" ~severity:Diag.Warning ~span ~query
        ~hint:"the filter passes every update; raise or drop the threshold"
        (Printf.sprintf "threshold %s always holds" pretty);
    ]
  else []

(* Walk one branch; returns (diags, final aggregate range). *)
let walk_branch ~query b prims =
  let diags = ref [] in
  let range = ref { lo = 0; hi = 0 } (* accumulators start at 0 *) in
  List.iteri
    (fun p prim ->
      match prim with
      | Ast.Filter preds ->
          let span = Diag.Prim { branch = b; prim = p } in
          List.iter
            (function
              | Ast.Cmp _ -> ()
              | Ast.Result_cmp { op; value } ->
                  diags := !diags @ judge ~query ~span !range op value;
                  (* downstream only sees aggregates passing the guard *)
                  let clipped = clip !range op value in
                  if clipped.lo <= clipped.hi then range := clipped)
            preds
      | Ast.Distinct _ -> range := { lo = 0; hi = 1 }
      | Ast.Reduce { agg; _ } -> range := after_agg agg
      | Ast.Map _ -> ())
    prims;
  (!diags, !range)

let run (ctx : Pass.ctx) =
  let query = ctx.Pass.query in
  let per_branch = List.mapi (walk_branch ~query) query.Ast.branches in
  let branch_diags = List.concat_map fst per_branch in
  let combine_diags =
    match (query.Ast.combine, per_branch) with
    | Some { Ast.op; threshold = Ast.Result_cmp { op = cop; value } },
      [ (_, ra); (_, rb) ] ->
        let combined =
          match op with
          | Ast.Sub | Ast.Pair -> { lo = 0; hi = ra.hi }
          | Ast.Min -> { lo = 0; hi = min ra.hi rb.hi }
        in
        judge ~query ~span:Diag.Combine combined cop value
    | _ -> []
  in
  branch_diags @ combine_diags
