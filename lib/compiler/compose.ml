(** Module rule composition — Algorithm 1 of the paper (§4.3).

    Takes the decomposed slot chains and applies, in order:

    - {b Opt.1} — replace front filters with [newton_init]: when a
      branch's first primitive is a filter whose predicates are (masked)
      equalities over the 5-tuple or TCP flags, its whole suite is dropped
      and the predicates become the branch's [newton_init] ternary entry.
    - {b Opt.2} — remove unneeded modules: slots decomposition marked
      unused, plus redundant K slots whose operation keys equal the keys
      already selected (the running θ of Algorithm 1).
    - {b Opt.3} — vertical composition: consecutive primitives alternate
      between the two metadata sets (tracking θ₁/θ₂ and restoring K when
      the set's keys differ), letting their modules share physical stages;
      a K whose keys no later slot reads is dropped.

    Finally, modules are assigned to stages: along one branch's chain a
    slot must be placed strictly after its predecessor when both use the
    same metadata set (write-read dependency, Figure 4) and may share the
    predecessor's stage otherwise; each (kind, metadata set) table exists
    at most once per stage per branch.  Parallel branches of one query
    multiplex the same stage cells (§6.4 "resource multiplexing"). *)

open Newton_query
open Ir

type stats = {
  primitives : int;
  modules_naive : int;
  modules : int;       (** active slots after Opt.1/2 *)
  modules_shared : int; (** distinct (stage, kind, set) cells after multiplexing *)
  stages_naive : int;
  stages : int;
  rules : int;          (** table entries: active slots + init entries *)
}

type t = {
  query : Ast.t;
  options : Decompose.options;
  branches : slot list array;       (** active slots, chain order *)
  init_entries : init_entry array;
  stats : stats;
}

(* ---------------- Opt.1 ---------------- *)

let pred_init_eligible = function
  | Ast.Cmp { field; op = Ast.Eq; _ } -> List.mem field init_fields
  | _ -> false

let front_filter_preds (query : Ast.t) branch_idx =
  match List.nth_opt query.Ast.branches branch_idx with
  | Some (Ast.Filter preds :: _) when preds <> [] && List.for_all pred_init_eligible preds ->
      Some preds
  | _ -> None

(* A TCAM entry has exactly one ternary slot per key field, so a front
   filter constraining a field twice must be merged into a single
   (value, mask) before it can become a classifier entry.  Two masked
   equalities merge iff they agree on every shared mask bit; returns
   [None] when they conflict — absorbing such a filter would silently
   drop one predicate, so the caller must leave it to run in stages. *)
let merged_matches preds =
  let rec add acc field v m =
    match acc with
    | [] -> Some [ (field, v, m) ]
    | (f', v', m') :: rest when Newton_packet.Field.equal f' field ->
        if (v lxor v') land m land m' <> 0 then None
        else Some ((f', v lor v', m lor m') :: rest)
    | x :: rest -> Option.map (fun r -> x :: r) (add rest field v m)
  in
  List.fold_left
    (fun acc p ->
      match (acc, p) with
      | None, _ | Some _, Ast.Result_cmp _ -> None
      | Some acc, Ast.Cmp { field; mask; value; _ } ->
          add acc field (value land mask) mask)
    (Some []) preds

let apply_opt1 (d : Decompose.t) =
  Array.iteri
    (fun b slots ->
      match Option.bind (front_filter_preds d.Decompose.query b) merged_matches with
      | None -> ()
      | Some matches ->
          (* Absorb into newton_init and drop the front suite (prim 0). *)
          d.Decompose.init_entries.(b) <- { ie_branch = b; ie_matches = matches };
          (* Mark absorbed slots unused as well: Opt.3's K restoration
             must never resurrect a front filter newton_init subsumed. *)
          List.iter
            (fun s ->
              if s.prim = 0 then begin
                s.removed <- true;
                s.used <- false
              end)
            slots)
    d.Decompose.branches

(* ---------------- Opt.2 ---------------- *)

let keys_of_slot s = match s.cfg with K_cfg ks -> Some ks | _ -> None

let apply_opt2 (d : Decompose.t) =
  Array.iter
    (fun slots ->
      (* Unused modules. *)
      List.iter (fun s -> if not s.used then s.removed <- true) slots;
      (* Redundant K: same operation keys as the running θ. *)
      let theta = ref None in
      List.iter
        (fun s ->
          if not s.removed then
            match keys_of_slot s with
            | Some ks -> (
                match !theta with
                | Some t when Ast.keys_equal t ks -> s.removed <- true
                | _ -> theta := Some ks)
            | None -> ())
        slots)
    d.Decompose.branches

(* ---------------- Opt.3 ---------------- *)

(* Group a branch's slots by primitive index, preserving chain order. *)
let group_by_prim slots =
  let order = ref [] in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun s ->
      if not (Hashtbl.mem seen s.prim) then begin
        Hashtbl.add seen s.prim ();
        order := s.prim :: !order
      end)
    slots;
  List.rev !order |> List.map (fun p -> (p, List.filter (fun s -> s.prim = p) slots))

(* Group a primitive's slots by suite (sketch row), preserving order. *)
let group_by_suite slots =
  let order = ref [] in
  let seen = Hashtbl.create 8 in
  List.iter
    (fun s ->
      if not (Hashtbl.mem seen s.suite) then begin
        Hashtbl.add seen s.suite ();
        order := s.suite :: !order
      end)
    slots;
  List.rev !order |> List.map (fun j -> List.filter (fun s -> s.suite = j) slots)

(* Suites within one sketch primitive are mutually independent (each row
   hashes the same keys), so Opt.3 alternates the metadata set per suite,
   letting rows overlap in the pipeline.  K restoration follows Algorithm
   1: when the suite's set currently selects different keys (the running
   theta of that set), the suite's K -- possibly removed by Opt.2 -- must
   be restored.  A K no later slot reads is then dropped: reading a
   set's keys takes an H (hash) or an R (report) on that set before
   another K re-selects them, and a map after the reporting R has
   neither. *)
let drop_unread_keys slots =
  let read = [| false; false |] in
  let rec from_last = function
    | [] -> ()
    | s :: rest ->
        from_last rest;
        if is_active s then
          match s.kind with
          | Newton_dataplane.Module_cost.K ->
              if not read.(s.meta) then s.removed <- true;
              read.(s.meta) <- false
          | H | R -> read.(s.meta) <- true
          | S -> ()
  in
  from_last slots

let apply_opt3 (d : Decompose.t) =
  Array.iter
    (fun slots ->
      let theta = [| None; None |] in
      let label = ref 1 in
      List.iter
        (fun (_p, prim_slots) ->
          List.iter
            (fun suite_slots ->
              let kslot =
                List.find_opt
                  (fun s -> s.kind = Newton_dataplane.Module_cost.K)
                  suite_slots
              in
              match kslot with
              | Some kslot when kslot.used ->
                  let ks = Option.get (keys_of_slot kslot) in
                  let set = 1 - !label in
                  label := set;
                  List.iter (fun s -> s.meta <- set) suite_slots;
                  (match theta.(set) with
                  | Some t when Ast.keys_equal t ks -> kslot.removed <- true
                  | _ ->
                      theta.(set) <- Some ks;
                      kslot.removed <- false)
              | _ ->
                  (* Key-less suites (threshold R, combine read-back) use
                     the keys already selected: toggle to the other set
                     only when both sets hold the same keys. *)
                  let other = 1 - !label in
                  let set =
                    match (theta.(other), theta.(!label)) with
                    | Some a, Some b when Ast.keys_equal a b -> other
                    | _ -> !label
                  in
                  label := set;
                  List.iter (fun s -> s.meta <- set) suite_slots)
            (group_by_suite prim_slots))
        (group_by_prim slots);
      drop_unread_keys slots)
    d.Decompose.branches

(* ---------------- Stage assignment ---------------- *)

(* Vertical composition.  Constraints (Figure 4 / Figure 5):
   - within a suite, K -> H -> S -> R occupy strictly increasing stages
     (write-read dependencies on the suite's metadata set);
   - a primitive starts at the previous primitive's gate (its last chain
     slot): the gate's own metadata set must wait one stage past the
     gate, the other set may share the gate's stage;
   - suites of one primitive are independent and overlap freely;
   - each (kind, metadata set) table exists at most once per stage. *)
let assign_vertical slots =
  let occupied = Hashtbl.create 64 in
  let gate_stage = ref (-1) in
  let gate_set = ref (-1) in
  (* Write-after-read hazards on the shared PHV fields.  Each metadata
     set has exactly one operation-key vector, one hash result and one
     state result (Fig. 5), and the branch has one global result, so:
     - all R modules (read-modify-write the global result) follow chain
       order strictly;
     - a K (writes the set's keys) must come after the last H of its set
       (which reads them);
     - an H (writes the set's hash result) after the last S of its set;
     - an S (writes the set's state result) after the last R of its set.
     Without these, a later-chain module would observe a sibling suite's
     value instead of its own (caught by the CQE-equivalence property
     tests). *)
  let last_r_stage = ref (-1) in
  let last_h_of_set = [| -1; -1 |] in
  let last_s_of_set = [| -1; -1 |] in
  let last_r_of_set = [| -1; -1 |] in
  List.iter
    (fun (_p, prim_slots) ->
      let start set =
        if !gate_stage < 0 then 0
        else !gate_stage + if set = !gate_set then 1 else 0
      in
      let last = ref None in
      List.iter
        (fun suite_slots ->
          let prev = ref (-1) in
          List.iter
            (fun s ->
              if is_active s then begin
                let base = if !prev < 0 then start s.meta else !prev + 1 in
                let base =
                  match s.kind with
                  | Newton_dataplane.Module_cost.K ->
                      max base (last_h_of_set.(s.meta) + 1)
                  | Newton_dataplane.Module_cost.H ->
                      max base (last_s_of_set.(s.meta) + 1)
                  | Newton_dataplane.Module_cost.S ->
                      max base (last_r_of_set.(s.meta) + 1)
                  | Newton_dataplane.Module_cost.R ->
                      max base (!last_r_stage + 1)
                in
                let stage = ref base in
                while Hashtbl.mem occupied (!stage, s.kind, s.meta) do
                  incr stage
                done;
                Hashtbl.add occupied (!stage, s.kind, s.meta) ();
                s.stage <- !stage;
                (match s.kind with
                | Newton_dataplane.Module_cost.H ->
                    last_h_of_set.(s.meta) <- max last_h_of_set.(s.meta) !stage
                | Newton_dataplane.Module_cost.S ->
                    last_s_of_set.(s.meta) <- max last_s_of_set.(s.meta) !stage
                | Newton_dataplane.Module_cost.R ->
                    last_r_stage := !stage;
                    last_r_of_set.(s.meta) <- max last_r_of_set.(s.meta) !stage
                | Newton_dataplane.Module_cost.K -> ());
                prev := !stage;
                last := Some (!stage, s.meta)
              end)
            suite_slots)
        (group_by_suite prim_slots);
      match !last with
      | Some (st, set) ->
          gate_stage := st;
          gate_set := set
      | None -> ())
    (group_by_prim slots)

let assign_stages (d : Decompose.t) ~vertical =
  Array.iter
    (fun slots ->
      if vertical then assign_vertical slots
      else begin
        (* Horizontal: one module per stage. *)
        let i = ref 0 in
        List.iter
          (fun s ->
            if is_active s then begin
              s.stage <- !i;
              incr i
            end)
          slots
      end)
    d.Decompose.branches

(* ---------------- Statistics ---------------- *)

let active_slots (d : Decompose.t) =
  Array.fold_left
    (fun acc slots -> acc + List.length (List.filter is_active slots))
    0 d.Decompose.branches

let stage_count (d : Decompose.t) =
  Array.fold_left
    (fun acc slots ->
      List.fold_left (fun m s -> if is_active s then max m (s.stage + 1) else m) acc slots)
    0 d.Decompose.branches

(* Distinct (stage, kind, set) cells across branches: parallel branches
   multiplex the same physical tables. *)
let shared_modules (d : Decompose.t) =
  let cells = Hashtbl.create 64 in
  Array.iter
    (List.iter (fun s ->
         if is_active s then Hashtbl.replace cells (s.stage, s.kind, s.meta) ()))
    d.Decompose.branches;
  Hashtbl.length cells

(** Run Algorithm 1 over a decomposition, honouring its option flags. *)
let compose (d : Decompose.t) =
  let options = d.Decompose.options in
  let naive = Decompose.naive_modules d in
  if options.Decompose.opt1 then apply_opt1 d;
  if options.Decompose.opt2 then apply_opt2 d;
  if options.Decompose.opt3 then apply_opt3 d;
  assign_stages d ~vertical:options.Decompose.opt3;
  let modules = active_slots d in
  let stages = stage_count d in
  let shared = shared_modules d in
  let rules = modules + Array.length d.Decompose.init_entries in
  {
    query = d.Decompose.query;
    options;
    branches = Array.map (List.filter is_active) d.Decompose.branches;
    init_entries = d.Decompose.init_entries;
    stats =
      {
        primitives = Ast.num_primitives d.Decompose.query;
        modules_naive = naive;
        modules;
        modules_shared = shared;
        stages_naive = naive;
        stages;
        rules;
      };
  }

(** One-call pipeline: decompose then compose. *)
let compile ?(options = Decompose.default_options) query =
  compose (Decompose.decompose ~options query)

(** Resource vector consumed by a compiled query: the amortised share of
    each module it holds rules in, plus register memory for its state
    banks. *)
let resource_usage t =
  let open Newton_dataplane in
  Array.fold_left
    (fun acc slots ->
      List.fold_left
        (fun acc s -> Resource.add acc (Module_cost.amortized s.kind))
        acc slots)
    Resource.zero t.branches

let to_string t =
  let s = t.stats in
  Printf.sprintf
    "%s: prims=%d modules %d->%d (shared %d) stages %d->%d rules=%d"
    t.query.Ast.name s.primitives s.modules_naive s.modules s.modules_shared
    s.stages_naive s.stages s.rules
