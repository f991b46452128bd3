(** Exact packet-space analysis (NA021, NA022, NA090–NA094), built on
    {!Space}: every branch's field predicates compile to an exact
    cube-union set, and satisfiability, implication, containment and
    overlap are decided {e exactly}, from NA090 on with a concrete
    witness packet:

    - NA021/NA022: a predicate always holds, or the branch's earlier
      predicates imply it — on any masks of its field, possibly absorbed
      into newton_init (Warnings);
    - NA090: a branch's filter conjunction admits no packet at all
      (Error; the witness is a near-miss — a packet that passes every
      predicate but one, naming the predicate that excludes it);
    - NA091: a later branch's packet space is strictly contained in an
      earlier branch's (Warning; the branch split is vacuous — the
      witness reaches only the earlier branch);
    - NA092: the whole intent's match space is strictly contained in a
      co-resident intent's (Info; the witness reaches only the
      shadowing peer).  Peers that match every packet are skipped —
      an unfiltered intent trivially shadows everything;
    - NA093: the exact number of pipeline passes the densest packet
      takes through the emitted classifier, with the true overlap
      region and a witness packet that recirculates (Info; supersedes
      the former NA082 estimate in {!Pass_p4});
    - NA094: the installed intent set leaves packet space uncovered
      (Info; emitted once per deployment, from the lexicographically
      first intent; the witness matches no installed intent).

    NA022 and NA090 decide one conjunction per field ({!Space.solve}),
    never multiplying the factors out.  NA091, NA092 and NA094
    witnesses come from the containment search itself
    ({!Space.witness_outside}; NA094 searches the universe against the
    covered set), so the pass never builds a difference.  NA092 and
    NA094 read each peer's space from its {!Pass.peer} record, computed
    once per deployment; only the intent's own space is computed here.
    Every space computation runs under the solver's cube budget:
    {!Space.Too_complex} silently drops the affected finding — exact or
    absent, never approximate — and a peer stored without a space
    (over the budget) is skipped by NA092 and silences NA094. *)

open Newton_query
open Newton_compiler

let name = "space"
let doc =
  "exact packet-space analysis: tautological and implied predicates, \
   branch satisfiability with near-miss witnesses, branch and \
   cross-intent subsumption, exact recirculation overlap, deployment \
   coverage gaps"
let codes = [ "NA021"; "NA022"; "NA090"; "NA091"; "NA092"; "NA093"; "NA094" ]

(* Exactness by refusal: an over-budget computation yields no
   diagnostics, never an approximate one. *)
let guarded f = try f () with Space.Too_complex -> []

(* ---------------- NA021/NA022: tautological and implied predicates ---------------- *)

let negate = function
  | Ast.Eq -> Ast.Neq
  | Ast.Neq -> Ast.Eq
  | Ast.Lt -> Ast.Ge
  | Ast.Ge -> Ast.Lt
  | Ast.Gt -> Ast.Le
  | Ast.Le -> Ast.Gt

(* A field predicate, at primitive [p] of branch [b], judged against
   the branch's [earlier] ones through the exact complement of its
   atom: it always holds iff the complement is empty (NA021), and it is
   implied iff the earlier factor on its field meets no packet of the
   complement (NA022; with no earlier predicate on the field, only a
   tautology is).  Malformed masks and values are NA010–NA013's to
   report: not judged, but still constraining what follows. *)
let judge ctx ~b ~p ~earlier = function
  | Ast.Result_cmp _ -> []
  | Ast.Cmp ({ field; mask; op; value } as c) as pred ->
      let fm = Newton_packet.Field.full_mask field in
      let warn code ~hint what =
        [
          Diag.make ~code ~severity:Diag.Warning
            ~span:(Diag.Prim { branch = b; prim = p })
            ~query:ctx.Pass.query ~hint
            (Printf.sprintf "predicate %s %s" (Ast.pred_to_string pred) what);
        ]
      in
      let same_field =
        List.filter
          (function
            | Ast.Cmp { field = f; _ } -> Newton_packet.Field.equal f field
            | Ast.Result_cmp _ -> false)
          earlier
      in
      if mask = 0 || mask land lnot fm <> 0 || value land lnot fm <> 0 then []
      else if Space.is_empty (Space.atom field mask (negate op) value) then
        warn "NA021" ~hint:"the predicate matches every packet; drop it"
          "always holds"
      else if
        same_field <> []
        &&
        try Space.solve (Ast.Cmp { c with op = negate op } :: same_field) = None
        with Space.Too_complex -> false
      then
        warn "NA022" ~hint:"drop the shadowed predicate"
          ("is already implied by earlier predicates"
          ^
          if p > 0 && Pass.absorbed ctx b then
            " (the front filter is absorbed into newton_init)"
          else "")
      else []

let predicate_diags ctx =
  List.concat
    (List.mapi
       (fun b branch ->
         let atoms = Ast.cmp_atoms branch in
         List.concat
           (List.mapi
              (fun k (p, pred) ->
                let earlier = List.filteri (fun j _ -> j < k) (List.map snd atoms) in
                judge ctx ~b ~p ~earlier pred)
              atoms))
       ctx.Pass.query.Ast.branches)

(* ---------------- NA090: exact unsatisfiability ---------------- *)

(* A witness for "almost satisfiable": the first predicate whose
   removal leaves the conjunction satisfiable, with a model of the
   rest.  Budget overruns just move on to the next candidate. *)
let near_miss preds =
  let arr = Array.of_list preds in
  let rec go k =
    if k >= Array.length arr then None
    else
      match Space.solve (List.filteri (fun i _ -> i <> k) preds) with
      | Some pkt -> Some (arr.(k), pkt)
      | None | (exception Space.Too_complex) -> go (k + 1)
  in
  go 0

let unsat_diags ~query =
  List.concat
    (List.mapi
       (fun b branch ->
         guarded (fun () ->
             let preds = List.map snd (Ast.cmp_atoms branch) in
             if Space.solve preds <> None then []
             else
               let hint, witness =
                 match near_miss preds with
                 | Some (culprit, pkt) ->
                     ( Printf.sprintf
                         "relaxing %s alone admits packets; the witness \
                          passes every other predicate"
                         (Ast.pred_to_string culprit),
                       Some pkt )
                 | None ->
                     ( "no single predicate is responsible; the conjunction \
                        conflicts as a whole",
                       None )
               in
               [
                 Diag.make ~code:"NA090" ~severity:Diag.Error
                   ~span:(Diag.Branch b) ~query ~hint ?witness
                   (Printf.sprintf
                      "branch %d is exactly unsatisfiable: no packet passes \
                       all %d field predicates"
                      b (List.length preds));
               ]))
       query.Ast.branches)

(* ---------------- NA091: branch subsumption ---------------- *)

(* [inner] strictly inside [outer]: a packet of [outer] outside
   [inner], taken from the containment search itself (no difference is
   built); [None] when [inner] is not contained or the sets are
   equal.  NA092 asks the same question of whole intents. *)
let strict_witness ~inner ~outer =
  if Space.subset inner outer then Space.witness_outside outer inner
  else None

let subsumption_diags ~query =
  guarded (fun () ->
      let spaces =
        Array.of_list (List.map Pass.branch_space query.Ast.branches)
      in
      let n = Array.length spaces in
      let out = ref [] in
      for j = n - 1 downto 1 do
        if not (Space.is_empty spaces.(j)) then
          (* The earliest strictly larger branch explains the split. *)
          let rec subsumer i =
            if i >= j then None
            else
              match strict_witness ~inner:spaces.(j) ~outer:spaces.(i) with
              | Some witness -> Some (i, witness)
              | None -> subsumer (i + 1)
          in
          match subsumer 0 with
          | None -> ()
          | Some (i, witness) ->
              out :=
                Diag.make ~code:"NA091" ~severity:Diag.Warning
                  ~span:(Diag.Branch j) ~query
                  ~hint:
                    (Printf.sprintf
                       "every packet branch %d's filters admit also passes \
                        branch %d; the witness reaches only branch %d"
                       j i i)
                  ~witness
                  (Printf.sprintf
                     "branch %d's packet space is strictly contained in \
                      branch %d's"
                     j i)
                :: !out
      done;
      !out)

(* ---------------- NA092: cross-intent shadowing ---------------- *)

(* [ours] is the intent's own space; each peer carries its own,
   computed once when it entered the deployment. *)
let shadow_diags ~query ~ours ~peers =
  match ours with
  | Some ours when not (Space.is_empty ours) ->
      List.filter_map
        (fun (p : Pass.peer) ->
          match p.Pass.p_space with
          | Some theirs when not p.Pass.p_universe -> (
              try
                Option.map
                  (fun witness ->
                    Diag.make ~code:"NA092" ~severity:Diag.Info
                      ~span:Diag.Query ~query
                      ~hint:
                        "the peer observes every packet this intent can \
                         see; the witness reaches only the shadowing peer"
                      ~witness
                      (Printf.sprintf
                         "intent's match space is strictly contained in \
                          co-resident intent %s (Q%d)"
                         p.Pass.p_query.Ast.name p.Pass.p_query.Ast.id))
                  (strict_witness ~inner:ours ~outer:theirs)
              with Space.Too_complex -> None)
          | _ -> None)
        peers
  | _ -> []

(* ---------------- NA093: exact recirculation overlap ---------------- *)

(* Classifier spaces of the active branches, from the installed
   newton_init patterns (an unabsorbed branch matches every packet). *)
let entry_spaces (compiled : Compose.t) =
  Array.to_list compiled.Compose.init_entries
  |> List.filter_map (fun (e : Ir.init_entry) ->
         if compiled.Compose.branches.(e.Ir.ie_branch) = [] then None
         else Some (Space.of_matches e.Ir.ie_matches))

(* Largest set of classifier spaces with a common packet, plus that
   common region.  Branch counts are tiny (≤ 6), so plain branch and
   bound suffices. *)
let rec densest count region = function
  | [] -> (count, region)
  | s :: rest -> (
      let skip = densest count region rest in
      match Space.inter region s with
      | meet when Space.is_empty meet -> skip
      | meet ->
          let take = densest (count + 1) meet rest in
          if fst take > fst skip then take else skip)

let recirc_diags ~query (compiled : Compose.t) =
  guarded (fun () ->
      let passes, region = densest 0 Space.universe (entry_spaces compiled) in
      if passes <= 1 then []
      else
        [
          Diag.make ~code:"NA093" ~severity:Diag.Info ~span:Diag.Query ~query
            ~hint:
              (Printf.sprintf
                 "overlap region: %s; each extra pass costs pipeline \
                  bandwidth, not correctness"
                 (Space.to_string region))
            ?witness:(Space.model region)
            (Printf.sprintf
               "densest packet takes exactly %d pipeline passes (branch \
                classifiers overlap; recirculated)"
               passes);
        ])

(* ---------------- NA094: deployment coverage gap ---------------- *)

let coverage_diags ~query ~ours ~peers =
  if peers = [] then []
  else
    let lead (q : Ast.t) = (q.Ast.id, q.Ast.name) in
    (* One report per deployment: the lexicographically first intent
       speaks for the set. *)
    if
      not
        (List.for_all
           (fun (p : Pass.peer) -> lead query <= lead p.Pass.p_query)
           peers)
    then []
    else
      match
        (ours, List.filter_map (fun (p : Pass.peer) -> p.Pass.p_space) peers)
      with
      | Some ours, theirs when List.compare_lengths theirs peers = 0 ->
          guarded (fun () ->
              let covered = List.fold_left Space.union ours theirs in
              match Space.witness_outside Space.universe covered with
              | None -> []
              | Some pkt ->
                  [
                    Diag.make ~code:"NA094" ~severity:Diag.Info
                      ~span:Diag.Query ~query ~witness:pkt
                      ~hint:
                        "packets in the gap update no state and trigger no \
                         export; install a broader intent if the deployment \
                         should observe them"
                      (Printf.sprintf
                         "the %d installed intents leave packet space \
                          uncovered: the witness matches none of them"
                         (List.length peers + 1));
                  ])
      (* An intent over the budget leaves the coverage unknown. *)
      | _ -> []

let run (ctx : Pass.ctx) =
  let query = ctx.Pass.query and peers = ctx.Pass.peers in
  (* The intent's own space, computed once for NA092 and NA094; with no
     peer neither finding needs it. *)
  let ours =
    if peers = [] then None
    else try Some (Pass.query_space query) with Space.Too_complex -> None
  in
  predicate_diags ctx
  @ unsat_diags ~query
  @ subsumption_diags ~query
  @ shadow_diags ~query ~ours ~peers
  @ (match (ctx.Pass.compiled, Lazy.force ctx.Pass.rules) with
    (* Mirror the former NA082 gate: only judge recirculation for
       intents the rule generator accepts at all. *)
    | Some compiled, Some (Ok _) -> recirc_diags ~query compiled
    | _ -> [])
  @ coverage_diags ~query ~ours ~peers
