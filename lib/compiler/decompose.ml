(** Query-primitive decomposition (§4.1).

    Turns each primitive of a query into a suite of module slots:

    - [filter] over header fields → K (select the tested fields, masked),
      H (direct mode), S (pass-through), R (ternary guard on the state
      result).  All four are {e used}: hardware R can only match the state
      result, so the value is conveyed through H and S.
    - [filter] over an aggregate ([Result_cmp]) → only R is used (guard on
      the global result), plus K when it re-selects grouping keys.
    - [map] → only K is used (the paper's own Opt.2 example).
    - [reduce] → [reduce_depth] suites forming a multi-array Count-Min
      sketch (Figure 3): per row K/H/S(+)/R, with R folding the running
      minimum into the global result.
    - [distinct] → [distinct_depth] suites forming a Bloom filter: per row
      K/H/S(|)/R; the Or-ALU returns the previous bit, R folds the minimum
      (1 iff the key was present in every row), and the last row guards
      global == 0 so only first occurrences continue.

    Multi-branch (combine) queries additionally get {e read-back} slots:
    the reporting branch re-hashes its key with the sibling branch's seeds,
    reads the sibling's register arrays (S_read), folds the sibling's
    estimate into the second accumulator, and a final R performs the
    combine, guards the threshold and reports (the Fig. 6 pattern). *)

open Newton_query
open Newton_dataplane
open Ir

type options = {
  opt1 : bool;
  opt2 : bool;
  opt3 : bool;
  reduce_depth : int;   (** CM rows per [reduce]; Table 3 uses 2 *)
  distinct_depth : int; (** BF rows per [distinct]; Table 3 uses 3 *)
  registers : int;      (** registers per S array (§6.2 varies 256–4096) *)
  seed_base : int;
}

let default_options =
  {
    opt1 = true;
    opt2 = true;
    opt3 = true;
    reduce_depth = 2;
    distinct_depth = 3;
    registers = Module_cost.default_registers;
    seed_base = 1000;
  }

(** All optimizations off — the naive baseline of §6.4. *)
let baseline_options = { default_options with opt1 = false; opt2 = false; opt3 = false }

type t = {
  query : Ast.t;
  options : options;
  branches : slot list array; (* chain order per branch *)
  init_entries : init_entry array; (* one per branch *)
}

exception Unsupported of string

(* Pack multiple (masked) field values into a single comparable word the
   direct-mode H produces and R matches. The runtime uses the same
   formula over packet fields. *)
let pack_values vs =
  List.fold_left (fun acc v -> ((acc lsl 16) lxor v) land 0x3FFFFFFF) 0 vs

(* Seeds: unique per (branch, prim, suite) so sketch rows are independent. *)
let seed options ~branch ~prim ~suite =
  options.seed_base + (branch * 10007) + (prim * 101) + suite

let filter_suite options ~branch ~prim ~regroup preds =
  let field_preds, result_preds =
    List.partition (function Ast.Cmp _ -> true | Ast.Result_cmp _ -> false) preds
  in
  match (field_preds, result_preds) with
  | [], [] -> raise (Unsupported "empty filter")
  | [], rps ->
      (* Aggregate-threshold filter: R only, plus K when [regroup]
         names keys to re-select (Opt.2/Opt.3 drop it again where a
         metadata set still holds them). *)
      let guard =
        match rps with
        | [ Ast.Result_cmp { op; value } ] -> (On_g1, op, value)
        | _ -> raise (Unsupported "multiple Result_cmp predicates in one filter")
      in
      [
        make_slot ~kind:K ~branch ~prim ~suite:0 ~used:(regroup <> [])
          (K_cfg regroup);
        make_slot ~kind:H ~branch ~prim ~suite:0 ~used:false
          (H_cfg { mode = `Direct; range = options.registers });
        make_slot ~kind:S ~branch ~prim ~suite:0 ~used:false
          (S_cfg { op = S_pass; registers = 0 });
        make_slot ~kind:R ~branch ~prim ~suite:0 ~used:true
          (R_cfg { r_nop with guard = Some guard });
      ]
  | fps, [] ->
      let keys, expected, guard =
        match fps with
        | [ Ast.Cmp { field; mask; op; value } ] when op <> Ast.Eq ->
            (* Single non-equality comparison: direct value, range guard. *)
            ([ { Ast.field; mask } ], None, (On_state, op, value land mask))
        | _ ->
            (* Conjunction of (masked) equalities: packed comparison. *)
            let keys =
              List.map
                (function
                  | Ast.Cmp { field; mask; op = Ast.Eq; value = _ } ->
                      { Ast.field; mask }
                  | _ ->
                      raise
                        (Unsupported
                           "filter mixes non-equality with other predicates"))
                fps
            in
            let expected =
              pack_values
                (List.map
                   (function
                     | Ast.Cmp { mask; value; _ } -> value land mask
                     | _ -> assert false)
                   fps)
            in
            (keys, Some expected, (On_state, Ast.Eq, expected))
      in
      ignore expected;
      [
        make_slot ~kind:K ~branch ~prim ~suite:0 ~used:true (K_cfg keys);
        make_slot ~kind:H ~branch ~prim ~suite:0 ~used:true
          (H_cfg { mode = `Direct; range = options.registers });
        make_slot ~kind:S ~branch ~prim ~suite:0 ~used:true
          (S_cfg { op = S_pass; registers = 0 });
        make_slot ~kind:R ~branch ~prim ~suite:0 ~used:true
          (R_cfg { r_nop with guard = Some guard });
      ]
  | _, _ -> raise (Unsupported "filter mixes field and aggregate predicates")

let map_suite ~branch ~prim keys =
  [
    make_slot ~kind:K ~branch ~prim ~suite:0 ~used:true (K_cfg keys);
    make_slot ~kind:H ~branch ~prim ~suite:0 ~used:false
      (H_cfg { mode = `Direct; range = 1 });
    make_slot ~kind:S ~branch ~prim ~suite:0 ~used:false
      (S_cfg { op = S_pass; registers = 0 });
    make_slot ~kind:R ~branch ~prim ~suite:0 ~used:false (R_cfg r_nop);
  ]

let sketch_suites options ~branch ~prim ~depth ~keys ~s_op ~last_guard =
  List.concat
    (List.init depth (fun j ->
         let merge = if j = 0 then (G1, M_set) else (G1, M_min) in
         let guard = if j = depth - 1 then last_guard else None in
         [
           make_slot ~kind:K ~branch ~prim ~suite:j ~used:true (K_cfg keys);
           make_slot ~kind:H ~branch ~prim ~suite:j ~used:true
             (H_cfg { mode = `Hash (seed options ~branch ~prim ~suite:j);
                      range = options.registers });
           make_slot ~kind:S ~branch ~prim ~suite:j ~used:true
             (S_cfg { op = s_op; registers = options.registers });
           make_slot ~kind:R ~branch ~prim ~suite:j ~used:true
             (R_cfg { r_nop with merge = Some merge; guard });
         ]))

let primitive_slots options ~branch ~prim ~regroup = function
  | Ast.Filter preds -> filter_suite options ~branch ~prim ~regroup preds
  | Ast.Map keys -> map_suite ~branch ~prim keys
  | Ast.Distinct keys ->
      sketch_suites options ~branch ~prim ~depth:options.distinct_depth ~keys
        ~s_op:S_bf
        ~last_guard:(Some (On_g1, Ast.Eq, 0))
  | Ast.Reduce { keys; agg } ->
      let s_op =
        match agg with
        | Ast.Count -> S_cm (Const 1)
        | Ast.Sum_field f -> S_cm (Field_val f)
        | Ast.Max_field f -> S_max (Field_val f)
      in
      sketch_suites options ~branch ~prim ~depth:options.reduce_depth ~keys
        ~s_op ~last_guard:None

(* Index of the last Reduce primitive in a branch (combine queries read
   the sibling's final reduce arrays). *)
let last_reduce_prim branch_prims =
  let rec go i best = function
    | [] -> best
    | Ast.Reduce _ :: rest -> go (i + 1) (Some i) rest
    | _ :: rest -> go (i + 1) best rest
  in
  match go 0 None branch_prims with
  | Some i -> i
  | None -> raise (Unsupported "combine branch lacks a reduce primitive")

(* Read-back + combine slots appended to branch [branch]: one suite that
   re-hashes the key with the sibling's row-0 seed, reads the sibling's
   row-0 register array, and whose R folds the read value into the second
   accumulator, performs the combine, guards the threshold and reports —
   Fig. 6's "R extracts the minimum between the global result and the
   sibling state" pattern, in a single rule.  Reading only the sibling's
   first CM row trades a little read-back accuracy for three fewer
   modules per combine (documented in DESIGN.md). *)
let combine_slots options ~branch ~other ~other_reduce_prim ~nprims
    (combine : Ast.combine) =
  let guard =
    match combine.threshold with
    | Ast.Result_cmp { op; value } -> Some (On_g1, op, value)
    | Ast.Cmp _ -> raise (Unsupported "combine threshold must be a Result_cmp")
  in
  let comb =
    match combine.op with
    | Ast.Sub -> Some M_sub
    | Ast.Min -> Some M_min
    | Ast.Pair -> None
  in
  let prim = nprims in
  [
    make_slot ~kind:H ~branch ~prim ~suite:0 ~used:true
      (H_cfg
         { mode = `Hash (seed options ~branch:other ~prim:other_reduce_prim ~suite:0);
           range = options.registers });
    make_slot ~kind:S ~branch ~prim ~suite:0 ~used:true
      (S_cfg
         { op = S_read { ar_branch = other; ar_prim = other_reduce_prim; ar_suite = 0 };
           registers = 0 });
    make_slot ~kind:R ~branch ~prim ~suite:0 ~used:true
      (R_cfg { merge = Some (G2, M_set); guard; report = true; combine = comb });
  ]

(* Ensure a single-branch query reports: set report on the last active R
   (normally the threshold filter's guard R), or append a reporting R. *)
let ensure_report ~branch ~nprims slots =
  let rec set_last_r = function
    | [] -> None
    | s :: rest -> (
        match set_last_r rest with
        | Some rest' -> Some (s :: rest')
        | None -> (
            match (s.kind, s.cfg) with
            | R, R_cfg cfg when s.used ->
                Some ({ s with cfg = R_cfg { cfg with report = true } } :: rest)
            | _ -> None))
  in
  match set_last_r slots with
  | Some slots' -> slots'
  | None ->
      slots
      @ [
          make_slot ~kind:R ~branch ~prim:nprims ~suite:0 ~used:true
            (R_cfg { r_nop with report = true });
        ]

(** Decompose a validated query into per-branch module-slot chains. *)
let decompose ?(options = default_options) (query : Ast.t) =
  (match Ast.validate query with
  | [] -> ()
  | errors ->
      raise (Ast.invalid ~id:query.Ast.id ~name:query.Ast.name errors));
  let nbranches = List.length query.Ast.branches in
  (* Reports carry the keys of the last grouping primitive (map,
     distinct or reduce), as in {!Ref_eval}; a field filter's K selects
     its own fields, so a threshold behind one re-selects them. *)
  let base =
    Array.of_list
      (List.mapi
         (fun b prims ->
           let group = ref [] and stale = ref false in
           List.concat
             (List.mapi
                (fun p prim ->
                  let regroup = if !stale then !group else [] in
                  (match prim with
                  | Ast.Map keys | Ast.Distinct keys | Ast.Reduce { keys; _ } ->
                      group := keys;
                      stale := false
                  | Ast.Filter preds ->
                      stale := List.exists (function Ast.Cmp _ -> true | _ -> false) preds);
                  primitive_slots options ~branch:b ~prim:p ~regroup prim)
                prims))
         query.Ast.branches)
  in
  let branches =
    match query.Ast.combine with
    | None ->
        let nprims = List.length (List.hd query.Ast.branches) in
        [| ensure_report ~branch:0 ~nprims base.(0) |]
    | Some combine ->
        if nbranches <> 2 then
          raise (Unsupported "combine queries must have exactly two branches");
        let prims_a = List.nth query.Ast.branches 0 in
        let prims_b = List.nth query.Ast.branches 1 in
        let ra = last_reduce_prim prims_a in
        let rb = last_reduce_prim prims_b in
        let a =
          base.(0)
          @ combine_slots options ~branch:0 ~other:1 ~other_reduce_prim:rb
              ~nprims:(List.length prims_a) combine
        in
        let b =
          if combine.op = Ast.Min then
            base.(1)
            @ combine_slots options ~branch:1 ~other:0 ~other_reduce_prim:ra
                ~nprims:(List.length prims_b) combine
          else base.(1)
        in
        [| a; b |]
  in
  {
    query;
    options;
    branches;
    init_entries = Array.init (Array.length branches) init_match_all;
  }

(** Total slot count before any optimization — the naive module count. *)
let naive_modules t =
  Array.fold_left (fun acc b -> acc + List.length b) 0 t.branches
