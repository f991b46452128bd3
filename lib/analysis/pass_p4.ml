(** P4 emission feasibility (NA080, NA081, NA083).

    A checked intent ultimately deploys as table entries against the
    static program {!Newton_p4gen.Emit} writes; this pass surfaces —
    before deployment — everything that would make
    {!Newton_p4gen.Rules.entries} refuse or the pipeline misbehave:

    - NA080: descriptor/classifier capacity — more operation keys than
      the 60-bit key descriptor encodes, duplicate key fields, or more
      parallel branches than the pending bitmap carries (Error);
    - NA081: semantics the static action menu cannot express — an R
      merge/combine with no table action, a cross-branch [S_read] whose
      target array no branch allocates, or a same-cell ordering hazard
      (the P4 stage applies K/H/S before R, so an earlier-prim R whose
      inputs a later-prim same-cell module overwrites — or a reporting
      R whose keys a same-cell K rewrites — diverges from the
      simulator) (Error);
    - NA083: the query's state arrays exceed the static register file
      (Error).

    The recirculation advisory this pass used to emit as NA082 (an
    overlap estimate from the ternary classifier patterns) is
    superseded by {!Pass_space}'s NA093, which proves the exact pass
    count with the true overlap region and a witness packet. *)

open Newton_compiler

let name = "p4"
let doc =
  "P4 emission feasibility: key-descriptor and branch-bitmap capacity, \
   action-menu coverage, same-cell ordering, register-file fit"
let codes = [ "NA080"; "NA081"; "NA083" ]

let issue_diag ~query (issue : Newton_p4gen.Rules.issue) =
  let open Newton_p4gen.Rules in
  let msg = issue_to_string issue in
  match issue with
  | Too_many_keys { branch; prim; _ } | Duplicate_key { branch; prim; _ } ->
      Diag.make ~code:"NA080" ~severity:Diag.Error
        ~span:(Diag.Prim { branch; prim }) ~query
        ~hint:
          "the 60-bit key descriptor holds 12 distinct fields; drop or \
           merge keys"
        msg
  | Too_many_branches { limit; _ } ->
      Diag.make ~code:"NA080" ~severity:Diag.Error ~span:Diag.Query ~query
        ~hint:
          (Printf.sprintf
             "the pending bitmap carries %d parallel branches; split the \
              intent" limit)
        msg
  | Unsupported_r { branch; prim; _ } ->
      Diag.make ~code:"NA081" ~severity:Diag.Error
        ~span:(Diag.Prim { branch; prim }) ~query
        ~hint:"the static R/T action menu cannot express this merge/combine"
        msg
  | Missing_read_target { branch; prim; _ } ->
      Diag.make ~code:"NA081" ~severity:Diag.Error
        ~span:(Diag.Prim { branch; prim }) ~query
        ~hint:"cross-branch reads need the owning branch to allocate the array"
        msg
  | Registers_exhausted { needed; capacity } ->
      Diag.make ~code:"NA083" ~severity:Diag.Error ~span:Diag.Query ~query
        ~hint:
          (Printf.sprintf
             "the static register file holds %d words; shrink sketches or \
              emit with a larger --registers" capacity)
        (Printf.sprintf
           "query needs %d state words but the register file holds %d" needed
           capacity)

(* Same-cell ordering hazards.  The emitted stage applies K, H, S, R, T
   in that fixed order per (stage, metadata set) cell; the simulator
   runs slots in prim order.  The compiler may place an R earlier in
   the chain into the same cell as a later K/H/S — harmless unless the
   later module overwrites something the R (or its trigger) still
   reads: the key copies of a *reporting* R, or the state result any R
   merges from. *)
let cell_hazards ~query (compiled : Compose.t) =
  let slots =
    Array.to_list compiled.branches |> List.concat
    |> List.filter (fun (s : Ir.slot) -> s.used && not s.removed)
  in
  List.filter_map
    (fun (r : Ir.slot) ->
      match r.kind with
      | Newton_dataplane.Module_cost.R ->
          let clobber =
            List.find_opt
              (fun (o : Ir.slot) ->
                o.branch = r.branch && o.stage = r.stage && o.meta = r.meta
                && o.prim > r.prim
                &&
                match o.kind with
                | Newton_dataplane.Module_cost.K -> (
                    (* K rewrites the key copies a reporting R digests *)
                    match r.cfg with
                    | Ir.R_cfg { report = true; _ } -> true
                    | _ -> false)
                | Newton_dataplane.Module_cost.H -> false
                | Newton_dataplane.Module_cost.S ->
                    (* S rewrites the state result every R merges from *)
                    true
                | Newton_dataplane.Module_cost.R -> false)
              slots
          in
          Option.map
            (fun (o : Ir.slot) ->
              Diag.make ~code:"NA081" ~severity:Diag.Error
                ~span:(Diag.Stage r.stage) ~query
                ~hint:
                  "the P4 stage applies K/H/S before R; this placement \
                   diverges from the simulator"
                (Printf.sprintf
                   "same-cell ordering hazard: R (branch %d prim %d) reads \
                    inputs a later %s (prim %d) overwrites in stage %d set %d"
                   r.branch r.prim
                   (Newton_dataplane.Module_cost.kind_to_string o.kind)
                   o.prim r.stage r.meta))
            clobber
      | _ -> None)
    slots

let run (ctx : Pass.ctx) =
  match (ctx.compiled, Lazy.force ctx.rules) with
  | Some compiled, Some (Ok _) -> cell_hazards ~query:ctx.query compiled
  | _, Some (Error issue) -> [ issue_diag ~query:ctx.query issue ]
  | _ -> []
