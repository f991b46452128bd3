(** Tests for the exact packet-space solver ({!Newton_analysis.Space})
    and the packet-space pass family (NA021, NA022, NA090–NA094).

    The solver is validated two ways: algebraic properties checked
    pointwise against the reference predicate evaluator on random
    packets, and model extraction (every model of a compiled predicate
    set satisfies the predicates under [ref_eval] semantics).  The
    passes are validated by witness replay: every witness packet a
    NA090–NA094 diagnostic carries is replayed through the runtime
    Engine (filter-clone intents with a count>0 trigger) — and through
    the interpreted P4 pipeline for NA093 — asserting the diagnosed
    behaviour actually occurs. *)

open Newton_packet
open Newton_query
module Space = Newton_analysis.Space
module Diag = Newton_analysis.Diag
module Pass = Newton_analysis.Pass
module Check = Newton_analysis.Check
module Engine = Newton_runtime.Engine

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* ---------------- generators ---------------- *)

let gen_fields =
  [ Field.Src_ip; Field.Src_port; Field.Proto; Field.Tcp_flags; Field.Dns_qr ]

let gen_atom =
  QCheck.Gen.(
    let* field = oneofl gen_fields in
    let fm = Field.full_mask field in
    let* mask = oneofl [ fm; fm land 0xFF00; fm land 0x0F0F; fm land 0x3 ] in
    let* op = oneofl Ast.[ Eq; Neq; Gt; Ge; Lt; Le ] in
    (* values straddle the mask range, including unreachable ones *)
    let* value = int_bound (min max_int (fm + (fm / 2) + 2)) in
    return (Ast.Cmp { field; mask; op; value }))

let gen_packet =
  QCheck.Gen.(
    let* seed = int_bound 0x3FFFFFFF in
    let pkt = Packet.create ~ts:0.0 () in
    let st = ref seed in
    List.iter
      (fun f ->
        st := (!st * 1103515245) + 12345;
        Packet.set pkt f (!st land Field.full_mask f))
      Field.all;
    return pkt)

let arb_atom = QCheck.make gen_atom
let arb_preds n = QCheck.make QCheck.Gen.(list_size (int_bound n) gen_atom)
let arb_packet = QCheck.make gen_packet

(* Narrow-field atoms for the properties that take complements and
   differences: an order predicate on a w-bit field compiles to up to w
   cubes, and compl/diff multiply cube counts, so 32-bit fields make
   those properties churn toward the cube budget instead of testing
   anything.  8-bit fields keep every derived set small. *)
let gen_atom_narrow =
  QCheck.Gen.(
    let* field = oneofl [ Field.Proto; Field.Tcp_flags; Field.Icmp_type; Field.Dns_qr ] in
    let fm = Field.full_mask field in
    let* mask = oneofl [ fm; fm land 0x0F; fm land 0x3 ] in
    let* op = oneofl Ast.[ Eq; Neq; Gt; Ge; Lt; Le ] in
    let* value = int_bound (min max_int (fm + (fm / 2) + 2)) in
    return (Ast.Cmp { field; mask; op; value }))

let arb_atom_narrow = QCheck.make gen_atom_narrow

let arb_preds_narrow n =
  QCheck.make QCheck.Gen.(list_size (int_bound n) gen_atom_narrow)

let holds = Space.pred_holds

let preds_hold preds pkt = List.for_all (fun p -> holds p pkt) preds

(* ---------------- solver: pointwise semantics ---------------- *)

let prop_atom_matches_ref_eval =
  QCheck.Test.make ~count:2000 ~name:"atom membership = ref_eval"
    (QCheck.pair arb_atom arb_packet)
    (fun (pred, pkt) -> Space.mem (Space.of_pred pred) pkt = holds pred pkt)

let prop_conjunction =
  QCheck.Test.make ~count:500 ~name:"of_preds = conjunction"
    (QCheck.pair (arb_preds 4) arb_packet)
    (fun (preds, pkt) ->
      try Space.mem (Space.of_preds preds) pkt = preds_hold preds pkt
      with Space.Too_complex -> QCheck.assume_fail ())

let prop_boolean_algebra =
  QCheck.Test.make ~count:300 ~name:"inter/union/diff/compl are pointwise"
    (QCheck.triple arb_atom_narrow arb_atom_narrow arb_packet)
    (fun (pa, pb, pkt) ->
      try
        let a = Space.of_pred pa and b = Space.of_pred pb in
        let ma = Space.mem a pkt and mb = Space.mem b pkt in
        Space.mem (Space.inter a b) pkt = (ma && mb)
        && Space.mem (Space.union a b) pkt = (ma || mb)
        && Space.mem (Space.diff a b) pkt = (ma && not mb)
        && Space.mem (Space.compl a) pkt = not ma
      with Space.Too_complex -> QCheck.assume_fail ())

let prop_model_satisfies =
  QCheck.Test.make ~count:500 ~name:"model satisfies its predicates"
    (arb_preds 4) (fun preds ->
      try
        match Space.model (Space.of_preds preds) with
        | None -> true
        | Some pkt -> preds_hold preds pkt
      with Space.Too_complex -> QCheck.assume_fail ())

(* [union] and [inter] hand back the other operand when one side is
   empty or universal: invisible only because every set is kept
   absorbed, so absorbing it again would keep every cube, in order. *)
let prop_identity_operands_keep_cubes =
  QCheck.Test.make ~count:500
    ~name:"union empty / inter universe keep the cube list"
    (arb_preds 4) (fun preds ->
      try
        let s = Space.of_preds preds in
        let same x = Space.to_string x = Space.to_string s in
        same (Space.union Space.empty s)
        && same (Space.union s Space.empty)
        && same (Space.inter Space.universe s)
        && same (Space.inter s Space.universe)
      with Space.Too_complex -> QCheck.assume_fail ())

let prop_subset_is_containment =
  QCheck.Test.make ~count:300 ~name:"subset decides containment"
    (QCheck.triple (arb_preds_narrow 2) (arb_preds_narrow 2) arb_packet)
    (fun (pa, pb, pkt) ->
      try
        let a = Space.of_preds pa and b = Space.of_preds pb in
        (* subset a b means every member of a is in b: check on pkt *)
        (not (Space.subset a b))
        || (not (Space.mem a pkt))
        || Space.mem b pkt
      with Space.Too_complex -> QCheck.assume_fail ())

(* [subset], [is_universe] and [equal] decide containment by a
   coverage search; the reference builds the difference (or the
   complement) and tests it for emptiness.  Agreement is only claimed
   where neither raises [Too_complex].  The reference is the slow side:
   [diff] splits a cube from its low bits up, so the pieces left after
   subtracting a few many-bit cubes multiply before the budget can
   refuse them (the complement of [sport > 26485 && tcp.flags == 23],
   five cubes, takes 13 s).  Cases with an operand of more than
   [bound] cubes are discarded; wide fields and complements need a
   tighter bound. *)
let small bound s =
  QCheck.assume (Space.cube_count s <= bound);
  s

(* [Space.of_preds], discarding the case as soon as a partial
   conjunction grows past [bound]: two order atoms on 32-bit fields
   meet in ~1000 cubes, which are slow to build only to be discarded. *)
let small_space bound preds =
  List.fold_left
    (fun acc p -> small bound (Space.inter acc (Space.of_pred p)))
    Space.universe preds

let subset_by_diff bound a b =
  Space.is_empty (Space.diff (small bound a) (small bound b))

let universe_by_compl bound s = Space.is_empty (Space.compl (small bound s))

(* [a] re-cut along [c]: the same set, covered only by several cubes. *)
let recut a c = Space.union (Space.inter a c) (Space.diff a c)

(* An arbitrary pair both ways, a pair contained by construction, and
   (no reference needed) a set against its own re-cut. *)
let prop_subset_agrees_with_diff ~bound name arb =
  QCheck.Test.make ~count:300 ~name (QCheck.triple arb arb arb)
    (fun (pa, pb, pc) ->
      try
        let space = small_space bound in
        let a = space pa and b = space pb and c = space pc in
        let agree x y = Space.subset x y = subset_by_diff bound x y in
        agree a b && agree b a
        && agree (Space.inter a b) b
        && Space.equal a (recut a c)
      with Space.Too_complex -> QCheck.assume_fail ())

let prop_subset_agrees_wide =
  prop_subset_agrees_with_diff ~bound:4
    "subset = is_empty (diff) (wide fields)" (arb_preds 2)

let prop_subset_agrees_narrow =
  prop_subset_agrees_with_diff ~bound:8
    "subset = is_empty (diff) (narrow fields)" (arb_preds_narrow 3)

let prop_universe_equal_agree_with_diff =
  QCheck.Test.make ~count:300
    ~name:"is_universe/equal = emptiness of compl/diff"
    (QCheck.pair (arb_preds_narrow 3) (arb_preds_narrow 3))
    (fun (pa, pb) ->
      try
        let bound = 6 in
        let a = small_space bound pa and b = small_space bound pb in
        Space.is_universe a = universe_by_compl bound a
        && Space.is_universe (Space.union a b)
           = universe_by_compl bound (Space.union a b)
        && Space.equal a b
           = (subset_by_diff bound a b && subset_by_diff bound b a)
        && Space.equal a (recut a b)
      with Space.Too_complex -> QCheck.assume_fail ())

(* [witness_outside] is [subset]'s search returning the piece it stops
   at: [None] exactly when [a ⊆ b], and otherwise a packet of [a]
   outside [b]. *)
let prop_witness_outside_decides ~bound name arb =
  QCheck.Test.make ~count:300 ~name (QCheck.pair arb arb) (fun (pa, pb) ->
      try
        let a = small_space bound pa and b = small_space bound pb in
        let sound x y =
          match Space.witness_outside x y with
          | None -> Space.subset x y
          | Some p ->
              (not (Space.subset x y)) && Space.mem x p && not (Space.mem y p)
        in
        sound a b && sound b a && sound (Space.union a b) a
      with Space.Too_complex -> QCheck.assume_fail ())

let prop_witness_outside_wide =
  prop_witness_outside_decides ~bound:16
    "witness_outside = subset (wide fields)" (arb_preds 3)

let prop_witness_outside_narrow =
  prop_witness_outside_decides ~bound:16
    "witness_outside = subset (narrow fields)" (arb_preds_narrow 3)

let same_packet p q =
  List.for_all (fun f -> Packet.get p f = Packet.get q f) Field.all

(* One cube minus anything: the pieces split from it are disjoint, so
   [diff] keeps every one, in the search's order, and its model is the
   search's first uncovered piece.  This is why NA091/NA092 witnesses
   did not move when they stopped building the difference.  [a] is a
   conjunction of masked equalities, so at most one cube. *)
let prop_witness_outside_is_model_of_diff =
  let gen_cube =
    QCheck.Gen.(
      list_size (int_bound 3)
        (let* field = oneofl gen_fields in
         let fm = Field.full_mask field in
         let* mask = oneofl [ fm; fm land 0xFF00; fm land 0x0F0F; fm land 0x3 ] in
         let* value = int_bound fm in
         return (Ast.Cmp { field; mask; op = Ast.Eq; value = value land mask })))
  in
  QCheck.Test.make ~count:300 ~name:"witness_outside of one cube = model (diff)"
    (QCheck.pair (QCheck.make gen_cube) (arb_preds_narrow 3))
    (fun (pa, pb) ->
      try
        let a = Space.of_preds pa and b = small_space 8 pb in
        match (Space.witness_outside a b, Space.model (Space.diff a b)) with
        | None, None -> true
        | Some p, Some q -> same_packet p q
        | _ -> false
      with Space.Too_complex -> QCheck.assume_fail ())

(* ---------------- solver: boundaries ---------------- *)

let test_atom_boundaries () =
  let sp = Field.Src_port in
  let a op v = Space.atom sp 0xFFFF op v in
  checkb "x < 0 empty" true (Space.is_empty (a Ast.Lt 0));
  checkb "x <= 0xFFFF universe" true (Space.is_universe (a Ast.Le 0xFFFF));
  checkb "x > 0xFFFF empty" true (Space.is_empty (a Ast.Gt 0xFFFF));
  checkb "x > 70000 empty (over-wide value)" true
    (Space.is_empty (a Ast.Gt 70000));
  checkb "x >= 0 universe" true (Space.is_universe (a Ast.Ge 0));
  checkb "eq outside mask empty" true
    (Space.is_empty (Space.atom sp 0xFF00 Ast.Eq 0x1234));
  checkb "neq outside mask universe" true
    (Space.is_universe (Space.atom sp 0xFF00 Ast.Neq 0x1234));
  (* masked order predicate: (x & 0xF0) < 0x20 holds iff the masked
     value is 0x00 or 0x10, whatever the unmasked bits are *)
  let m = Space.atom sp 0xF0 Ast.Lt 0x20 in
  let pkt v =
    let p = Packet.create () in
    Packet.set p sp v;
    p
  in
  checkb "0x10f member" true (Space.mem m (pkt 0x10F));
  checkb "0x11f member" true (Space.mem m (pkt 0x11F));
  checkb "0x9f not member" false (Space.mem m (pkt 0x9F));
  checkb "0x25 not member" false (Space.mem m (pkt 0x25));
  (* interval via conjunction is exact *)
  let band = Space.inter (a Ast.Ge 100) (a Ast.Le 101) in
  checkb "100 in [100,101]" true (Space.mem band (pkt 100));
  checkb "101 in [100,101]" true (Space.mem band (pkt 101));
  checkb "99 out" false (Space.mem band (pkt 99));
  checkb "102 out" false (Space.mem band (pkt 102));
  checkb "[100,101] minus both endpoints empty" true
    (Space.is_empty
       (Space.diff band
          (Space.union (a Ast.Eq 100) (a Ast.Eq 101))))

(* Q17 (any tunnel id) has one single-bit cube per tun.id bit; its
   containment in Q12's two DNS cubes was the slowest pair of the
   catalog while subset still built the difference. *)
let test_catalog_containment () =
  let space (q : Ast.t) =
    List.fold_left
      (fun acc b ->
        Space.union acc (Space.of_preds (List.map snd (Ast.cmp_atoms b))))
      Space.empty q.Ast.branches
  in
  let q17 = space (Catalog.by_id 17) in
  List.iter
    (fun (name, q, expected) ->
      checkb
        (Printf.sprintf "Q17 %s %s" (if expected then "⊆" else "⊄") name)
        expected (Space.subset q17 (space q)))
    [
      ("Q3", Catalog.by_id 3, true);
      ("Q10", Catalog.by_id 10, true);
      ("Q11", Catalog.by_id 11, true);
      ("Q12", Catalog.q12 (), false);
      ("Q1", Catalog.q1 (), false);
    ]

let test_cross_mask_exactness () =
  (* (sport & 0xFF00) == 0x1200 && sport == 0x1100 is unsatisfiable,
     which per-(field,mask) interval tracking cannot see. *)
  let s =
    Space.of_preds
      [
        Ast.Cmp { field = Field.Src_port; mask = 0xFF00; op = Ast.Eq; value = 0x1200 };
        Ast.Cmp { field = Field.Src_port; mask = 0xFFFF; op = Ast.Eq; value = 0x1100 };
      ]
  in
  checkb "cross-mask contradiction is empty" true (Space.is_empty s);
  let s' =
    Space.of_preds
      [
        Ast.Cmp { field = Field.Src_port; mask = 0xFF00; op = Ast.Eq; value = 0x1200 };
        Ast.Cmp { field = Field.Src_port; mask = 0xFFFF; op = Ast.Eq; value = 0x1234 };
      ]
  in
  checkb "consistent cross-mask pair is satisfiable" false (Space.is_empty s')

(* ---------------- witness replay through the Engine ---------------- *)

(* A filter-clone probe intent: does the runtime Engine let [pkt]
   through [preds]?  The clone reduces on dip with a count>0 trigger,
   so any admitted packet exports a report. *)
let engine_sees preds pkt =
  let dip = Ast.key Field.Dst_ip in
  let probe =
    (* one Filter per predicate: a single mixed-operator filter is not
       decomposable, and the originating branches split theirs too *)
    Ast.chain ~id:990 ~name:"probe" ~description:""
      (List.map (fun p -> Ast.Filter [ p ]) preds
       @ [
           Ast.Map [ dip ];
           Ast.Reduce { keys = [ dip ]; agg = Ast.Count };
           Ast.Filter [ Ast.result_gt 0 ];
           Ast.Map [ dip ];
         ])
  in
  let e = Engine.create ~switch_id:0 () in
  let _ = Engine.install e (Newton_compiler.Compose.compile probe) in
  Engine.process_packet e (Packet.with_ts pkt 0.01);
  Engine.report_count e > 0

let branch_preds branch = List.map snd (Ast.cmp_atoms branch)

let branch_admits branch pkt =
  let preds = branch_preds branch in
  let statically = preds_hold preds pkt in
  (* engine and solver must agree on every replay *)
  checkb "engine agrees with solver on witness" statically
    (engine_sees preds pkt);
  statically

let query_admits (q : Ast.t) pkt =
  List.exists (fun b -> branch_admits b pkt) q.Ast.branches

(* ---------------- NA090: exact unsatisfiability ---------------- *)

let cross_mask_contra =
  Ast.Filter
    [
      Ast.Cmp { field = Field.Src_port; mask = 0xFF00; op = Ast.Eq; value = 0x1200 };
      Ast.Cmp { field = Field.Src_port; mask = 0xFFFF; op = Ast.Eq; value = 0x1100 };
    ]

let dip = Ast.key Field.Dst_ip

let tail keys th =
  [
    Ast.Map keys;
    Ast.Reduce { keys; agg = Ast.Count };
    Ast.Filter [ Ast.result_gt th ];
    Ast.Map keys;
  ]

let test_na090_cross_mask () =
  let q =
    Ast.chain ~id:950 ~name:"contra" ~description:""
      (cross_mask_contra :: tail [ dip ] 5)
  in
  let ds = Check.check_query q in
  checkb "NA090 error" true
    (List.exists
       (fun d -> d.Diag.code = "NA090" && d.Diag.severity = Diag.Error)
       ds);
  match List.find_opt (fun d -> d.Diag.code = "NA090") ds with
  | None -> Alcotest.fail "NA090 expected"
  | Some d -> (
      match (d.Diag.witness, d.Diag.span) with
      | Some pkt, Diag.Branch b ->
          let preds = branch_preds (List.nth q.Ast.branches b) in
          let failing = List.filter (fun p -> not (holds p pkt)) preds in
          checki "near-miss witness fails exactly one predicate" 1
            (List.length failing);
          (* diagnosed behaviour: the branch never fires — not even for
             its own near-miss witness *)
          checkb "engine drops the witness" false
            (engine_sees preds pkt);
          (* relaxing the failing predicate admits it *)
          let relaxed = List.filter (fun p -> holds p pkt) preds in
          checkb "engine admits the witness once relaxed" true
            (engine_sees relaxed pkt)
      | _ -> Alcotest.fail "NA090 should carry a witness and a branch span")

(* ---------------- NA021/NA022/NA090: exact, per field ---------------- *)

let finding code span ds =
  List.exists (fun d -> d.Diag.code = code && d.Diag.span = span) ds

let parse = Parser.parse ~id:960 ~name:"adhoc"

(* Random branches over tcp.flags, one predicate per filter, against
   all 256 values of the field: NA090 iff no value passes the branch,
   NA021 iff every value passes the predicate, NA022 iff (short of
   NA021) every value passing the earlier predicates passes it. *)
let prop_predicate_findings_exact =
  let gen_pred =
    QCheck.Gen.(
      let* op = oneofl Ast.[ Eq; Neq; Gt; Ge; Lt; Le ] in
      let* mask = int_range 1 0xFF in
      let* value = int_bound 0xFF in
      return (Ast.Cmp { field = Field.Tcp_flags; mask; op; value }))
  in
  let values =
    List.init 256 (fun v ->
        let pkt = Packet.create ~ts:0.0 () in
        Packet.set pkt Field.Tcp_flags v;
        pkt)
  in
  let implied ~by p =
    List.for_all (fun pkt -> (not (preds_hold by pkt)) || holds p pkt) values
  in
  QCheck.Test.make ~count:300 ~name:"NA021/NA022/NA090 = enumeration (tcp.flags)"
    (QCheck.make
       ~print:(fun ps -> String.concat " && " (List.map Ast.pred_to_string ps))
       QCheck.Gen.(list_size (int_range 1 4) gen_pred))
    (fun preds ->
      let q =
        Ast.chain ~id:960 ~name:"flags" ~description:""
          (List.map (fun p -> Ast.Filter [ p ]) preds @ tail [ dip ] 5)
      in
      let ds = Check.check_query q in
      finding "NA090" (Diag.Branch 0) ds
      = not (List.exists (preds_hold preds) values)
      && List.for_all Fun.id
           (List.mapi
              (fun k p ->
                let span = Diag.Prim { branch = 0; prim = k } in
                let always = implied ~by:[] p in
                let earlier = List.filteri (fun j _ -> j < k) preds in
                finding "NA021" span ds = always
                && finding "NA022" span ds
                   = ((not always) && implied ~by:earlier p))
              preds))

(* Two masks of one field: the earlier predicate fixes bits the later
   one only tests. *)
let test_na022_cross_mask () =
  List.iter
    (fun text ->
      checkb text true
        (finding "NA022"
           (Diag.Prim { branch = 0; prim = 2 })
           (Check.check_query (parse text))))
    [
      "filter(tcp.flags & 0x3 == 3) | map(dip) | filter(tcp.flags & 0x1 == 1) \
       | map(dip) | reduce(dip, count) | filter(count > 5) | map(dip)";
      "filter(sport & 0xFF00 == 0x1200) | map(dip) | filter(sport > 0x1000) \
       | map(dip) | reduce(dip, count) | filter(count > 5) | map(dip)";
    ]

(* The cube budget is checked before absorption, so an oversized
   complement is refused at once; and a conjunction over three fields
   is decided per field, so its product is never built. *)
let test_budget_refuses_at_once () =
  let cpu f =
    let t0 = Sys.time () in
    let r = f () in
    (r, Sys.time () -. t0)
  in
  let preds =
    [
      Ast.Cmp { field = Field.Src_port; mask = 0xFFFF; op = Ast.Gt; value = 26485 };
      Ast.Cmp { field = Field.Tcp_flags; mask = 0xFF; op = Ast.Eq; value = 23 };
    ]
  in
  let refused, secs =
    cpu (fun () ->
        match Space.compl (Space.of_preds preds) with
        | _ -> false
        | exception Space.Too_complex -> true)
  in
  checkb "compl refused" true refused;
  if secs > 2.0 then Alcotest.failf "compl took %.1f s of CPU" secs;
  let ds, secs =
    cpu (fun () ->
        Check.check_query
          (parse
             "filter(sip != 1 && dip != 2 && sport != 3 && sport > 10 && \
              sport < 5) | map(dip) | reduce(dip, count) | filter(count > 5) \
              | map(dip)"))
  in
  checkb "NA090" true (finding "NA090" (Diag.Branch 0) ds);
  if secs > 5.0 then Alcotest.failf "check took %.1f s of CPU" secs

(* ---------------- NA091: branch subsumption ---------------- *)

let test_na091_subsumed_branch () =
  let syn =
    Ast.Filter
      [ Ast.field_is Field.Proto 6; Ast.field_is Field.Tcp_flags 2 ]
  in
  let tcp = Ast.Filter [ Ast.field_is Field.Proto 6 ] in
  let q =
    Ast.make ~id:951 ~name:"subsumed" ~description:""
      ~combine:{ Ast.op = Ast.Sub; threshold = Ast.result_gt 10 }
      [ tcp :: tail [ dip ] 0; syn :: tail [ dip ] 0 ]
  in
  let ds = Check.check_query q in
  match
    List.find_opt
      (fun d -> d.Diag.code = "NA091" && d.Diag.severity = Diag.Warning)
      ds
  with
  | None -> Alcotest.fail "NA091 expected"
  | Some d -> (
      checkb "span is the later branch" true (d.Diag.span = Diag.Branch 1);
      match d.Diag.witness with
      | None -> Alcotest.fail "NA091 should carry a witness"
      | Some pkt ->
          (* the witness reaches only the earlier branch *)
          checkb "witness passes the subsuming branch" true
            (branch_admits (List.nth q.Ast.branches 0) pkt);
          checkb "witness fails the subsumed branch" false
            (branch_admits (List.nth q.Ast.branches 1) pkt))

(* ---------------- NA092: cross-intent shadowing ---------------- *)

let test_na092_shadowed_intent () =
  let narrow =
    Ast.chain ~id:952 ~name:"dns_req" ~description:""
      (Ast.Filter
         [ Ast.field_is Field.Proto 17; Ast.field_is Field.Dst_port 53 ]
      :: tail [ dip ] 5)
  in
  let broad =
    Ast.chain ~id:953 ~name:"udp_all" ~description:""
      (Ast.Filter [ Ast.field_is Field.Proto 17 ] :: tail [ dip ] 5)
  in
  let ds = Check.check_queries [ narrow; broad ] in
  match
    List.find_opt
      (fun d -> d.Diag.code = "NA092" && d.Diag.query_id = 952)
      ds
  with
  | None -> Alcotest.fail "NA092 expected on the narrow intent"
  | Some d -> (
      checkb "info severity" true (d.Diag.severity = Diag.Info);
      match d.Diag.witness with
      | None -> Alcotest.fail "NA092 should carry a witness"
      | Some pkt ->
          checkb "witness reaches the shadowing peer" true
            (query_admits broad pkt);
          checkb "witness misses the shadowed intent" false
            (query_admits narrow pkt))

(* An identical co-resident has the same packet space: neither intent
   is strictly inside the other, so neither gets NA092 (the same cube
   list answers without a containment search). *)
let test_na092_identical_resident () =
  let udp id =
    Ast.chain ~id ~name:(Printf.sprintf "udp_%d" id) ~description:""
      (Ast.Filter [ Ast.field_is Field.Proto 17 ] :: tail [ dip ] 5)
  in
  let ds = Check.check_queries [ udp 956; udp 957 ] in
  checkb "no NA092 between identical intents" false
    (List.exists (fun d -> d.Diag.code = "NA092") ds);
  let compiled q = Newton_compiler.Compose.compile q in
  let peer = Pass.peer (udp 957) (Some (compiled (udp 957))) in
  let ds = Check.admit_compiled ~peers:[ peer ] (compiled (udp 956)) in
  checkb "no NA092 admitting beside an identical resident" false
    (List.exists (fun d -> d.Diag.code = "NA092") ds)

let test_na092_skips_unfiltered_peers () =
  (* An intent with no front filter matches everything; flagging every
     co-resident intent as shadowed by it would be noise. *)
  let narrow =
    Ast.chain ~id:954 ~name:"narrow" ~description:""
      (Ast.Filter [ Ast.field_is Field.Proto 17 ] :: tail [ dip ] 5)
  in
  let unfiltered =
    Ast.chain ~id:955 ~name:"everything" ~description:"" (tail [ dip ] 5)
  in
  let ds = Check.check_queries [ narrow; unfiltered ] in
  checkb "no NA092 against a match-all peer" false
    (List.exists (fun d -> d.Diag.code = "NA092") ds)

(* Both ports above 21845 inside all of UDP: sixty-four cubes under
   one.  The difference UDP minus them overruns the cube budget (about
   ten seconds of splitting before it refuses), which once dropped
   these findings; the witness now comes from the containment search
   and costs what the containment test costs. *)
let udp_high_ports =
  Ast.Filter [ Ast.field_is Field.Proto 17 ]
  :: List.map
       (fun field ->
         Ast.Filter
           [
             Ast.Cmp
               { field; mask = Field.full_mask field; op = Ast.Gt; value = 21845 };
           ])
       [ Field.Src_port; Field.Dst_port ]

let test_witness_without_difference () =
  let udp = Ast.Filter [ Ast.field_is Field.Proto 17 ] in
  let narrow =
    Ast.chain ~id:958 ~name:"udp_high" ~description:""
      (udp_high_ports @ tail [ dip ] 5)
  in
  let broad =
    Ast.chain ~id:959 ~name:"udp_all" ~description:"" (udp :: tail [ dip ] 5)
  in
  let split =
    Ast.make ~id:960 ~name:"udp_split" ~description:""
      ~combine:{ Ast.op = Ast.Sub; threshold = Ast.result_gt 10 }
      [ udp :: tail [ dip ] 0; udp_high_ports @ tail [ dip ] 0 ]
  in
  let finding code id ds =
    match
      List.find_opt (fun d -> d.Diag.code = code && d.Diag.query_id = id) ds
    with
    | Some { Diag.witness = Some pkt; _ } -> pkt
    | _ -> Alcotest.failf "%s with a witness expected on Q%d" code id
  in
  let pkt = finding "NA092" 958 (Check.check_queries [ narrow; broad ]) in
  checkb "NA092 witness reaches the shadowing peer" true
    (query_admits broad pkt);
  checkb "NA092 witness misses the shadowed intent" false
    (query_admits narrow pkt);
  let pkt = finding "NA091" 960 (Check.check_query split) in
  checkb "NA091 witness passes the subsuming branch" true
    (branch_admits (List.nth split.Ast.branches 0) pkt);
  checkb "NA091 witness fails the subsumed branch" false
    (branch_admits (List.nth split.Ast.branches 1) pkt)

(* ---------------- NA093: exact recirculation, p4sim replay ------- *)

let overlay_on_wire_base witness =
  (* Witness packets zero every unconstrained field; give them a
     parseable spine (IPv4, sane lengths) without touching any field
     the witness pins. *)
  let base = Packet.make ~ts:0.0 () in
  List.iter
    (fun f ->
      let v = Packet.get witness f in
      if v <> 0 then Packet.set base f v)
    Field.all;
  base

let replay_passes (q : Ast.t) pkt =
  let layout = Newton_p4gen.Emit.default_layout in
  let compiled = Newton_compiler.Compose.compile q in
  match Newton_p4gen.Rules.entries ~layout compiled with
  | Error issue ->
      Alcotest.fail (Newton_p4gen.Rules.issue_to_string issue)
  | Ok rules -> (
      let interp =
        Newton_p4sim.Interp.create
          (Newton_p4sim.P4parse.parse (Newton_p4gen.Emit.program ~layout ()))
      in
      (* NA093 speaks about classifier overlap.  The newton_recirc
         cancel entry is the orthogonal guard short-circuit: a single
         witness packet cannot trip branch 0's count threshold, so the
         guard stop would clear the pending bitmap and mask the very
         recirculation under test.  Replay without it. *)
      Newton_p4sim.Interp.install interp
        (List.filter
           (fun (r : Newton_p4gen.Rules.entry) ->
             r.Newton_p4gen.Rules.table <> "newton_recirc")
           rules);
      match Newton_p4sim.Diff.wire pkt with
      | Error why ->
          Alcotest.fail
            ("witness has no frame: " ^ Newton_p4sim.Diff.skip_to_string why)
      | Ok bytes ->
          ignore
            (Newton_p4sim.Interp.run interp
               ~ingress_port:(Packet.get pkt Field.Ingress_port)
               bytes);
          Newton_p4sim.Interp.last_passes interp)

let test_na093_witness_recirculates () =
  let q = Catalog.q12 () in
  let ds = Check.check_query q in
  match List.find_opt (fun d -> d.Diag.code = "NA093") ds with
  | None -> Alcotest.fail "NA093 expected on Q12"
  | Some d -> (
      match d.Diag.witness with
      | None -> Alcotest.fail "NA093 should carry a witness"
      | Some w ->
          let pkt = overlay_on_wire_base w in
          let expected =
            Newton_p4gen.Rules.overlap_passes
              (Newton_compiler.Compose.compile q)
          in
          checkb "diagnosed overlap exceeds one pass" true (expected > 1);
          checki "interpreted pipeline recirculates exactly as diagnosed"
            expected (replay_passes q pkt))

let test_na093_quiet_on_disjoint_branches () =
  (* Q6 (SYN minus FIN) has disjoint branch classifiers: no packet is
     both, so no recirculation and no NA093. *)
  let ds = Check.check_query (Catalog.by_id 6) in
  checkb "no NA093 on disjoint branches" false
    (List.exists (fun d -> d.Diag.code = "NA093") ds)

(* ---------------- NA094: coverage gap ---------------- *)

let test_na094_coverage_gap () =
  let tcp =
    Ast.chain ~id:956 ~name:"tcp_only" ~description:""
      (Ast.Filter [ Ast.field_is Field.Proto 6 ] :: tail [ dip ] 5)
  in
  let udp =
    Ast.chain ~id:957 ~name:"udp_only" ~description:""
      (Ast.Filter [ Ast.field_is Field.Proto 17 ] :: tail [ dip ] 5)
  in
  let ds = Check.check_queries [ tcp; udp ] in
  let gaps = List.filter (fun d -> d.Diag.code = "NA094") ds in
  checki "one gap report per deployment" 1 (List.length gaps);
  let d = List.hd gaps in
  checkb "emitted by the first intent" true (d.Diag.query_id = 956);
  match d.Diag.witness with
  | None -> Alcotest.fail "NA094 should carry a witness"
  | Some pkt ->
      checkb "witness matches no installed intent" false
        (query_admits tcp pkt || query_admits udp pkt)

let test_na094_quiet_when_covered () =
  let tcp =
    Ast.chain ~id:956 ~name:"tcp_only" ~description:""
      (Ast.Filter [ Ast.field_is Field.Proto 6 ] :: tail [ dip ] 5)
  in
  let rest =
    Ast.chain ~id:957 ~name:"not_tcp" ~description:""
      (Ast.Filter
         [ Ast.Cmp { field = Field.Proto; mask = 0xFF; op = Ast.Neq; value = 6 } ]
      :: tail [ dip ] 5)
  in
  let ds = Check.check_queries [ tcp; rest ] in
  checkb "no NA094 when the set covers every packet" false
    (List.exists (fun d -> d.Diag.code = "NA094") ds)

(* ---------------- witness replay sweep over a mutated corpus ------ *)

(* Every catalog intent, plus an unsatisfiable mutant of each (a
   cross-mask contradiction prepended to its first branch).  Checked as
   one deployment, every NA090–NA094 witness in the report is replayed
   through the Engine probe; NA093 witnesses additionally drive the
   interpreted P4 pipeline. *)
let mutated_corpus () =
  let base = Catalog.all () @ Catalog.extras () in
  let mutants =
    List.map
      (fun (q : Ast.t) ->
        match q.Ast.branches with
        | first :: rest ->
            {
              q with
              Ast.id = q.Ast.id + 800;
              name = q.Ast.name ^ "_unsat";
              branches = (cross_mask_contra :: first) :: rest;
            }
        | [] -> q)
      base
  in
  base @ mutants

let test_witness_replay_sweep () =
  let corpus = mutated_corpus () in
  let by_id id = List.find (fun (q : Ast.t) -> q.Ast.id = id) corpus in
  let diags = Check.check_queries corpus in
  let seen = Hashtbl.create 8 in
  List.iter
    (fun d ->
      let code = d.Diag.code in
      if String.length code = 5 && String.sub code 0 4 = "NA09" then begin
        Hashtbl.replace seen code
          (1 + Option.value (Hashtbl.find_opt seen code) ~default:0);
        let q = by_id d.Diag.query_id in
        match (code, d.Diag.witness) with
        | "NA090", Some pkt -> (
            match d.Diag.span with
            | Diag.Branch b ->
                let preds = branch_preds (List.nth q.Ast.branches b) in
                checki
                  (Printf.sprintf "%s: near-miss fails exactly one pred"
                     q.Ast.name)
                  1
                  (List.length
                     (List.filter (fun p -> not (holds p pkt)) preds));
                checkb "engine drops the branch's witness" false
                  (engine_sees preds pkt)
            | _ -> Alcotest.fail "NA090 span should be a branch")
        | "NA091", Some pkt -> (
            match d.Diag.span with
            | Diag.Branch j ->
                checkb "witness fails the subsumed branch" false
                  (branch_admits (List.nth q.Ast.branches j) pkt);
                checkb "witness passes an earlier branch" true
                  (List.exists
                     (fun i -> branch_admits (List.nth q.Ast.branches i) pkt)
                     (List.init j Fun.id))
            | _ -> Alcotest.fail "NA091 span should be a branch")
        | "NA092", Some pkt ->
            checkb
              (Printf.sprintf "%s: shadow witness misses the intent"
                 q.Ast.name)
              false (query_admits q pkt);
            checkb "shadow witness reaches some peer" true
              (List.exists
                 (fun (p : Ast.t) -> p.Ast.id <> q.Ast.id && query_admits p pkt)
                 corpus)
        | "NA093", Some pkt ->
            let expected =
              Newton_p4gen.Rules.overlap_passes
                (Newton_compiler.Compose.compile q)
            in
            checkb "diagnosed overlap exceeds one pass" true (expected > 1);
            checki
              (Printf.sprintf "%s: witness recirculates as diagnosed"
                 q.Ast.name)
              expected
              (replay_passes q (overlay_on_wire_base pkt))
        | "NA094", Some pkt ->
            List.iter
              (fun (p : Ast.t) ->
                checkb
                  (Printf.sprintf "gap witness misses %s" p.Ast.name)
                  false (query_admits p pkt))
              corpus
        | _, None ->
            (* NA090's witness search can come up dry on multi-way
               conflicts; everything else must carry one. *)
            checkb (code ^ " may only lack a witness if NA090") true
              (code = "NA090")
        | _ -> ()
      end)
    diags;
  (* The sweep must actually exercise the exact passes.  NA091 and
     NA094 are exercised by their targeted tests instead: the catalog
     has no subsumed branches, and on a 30+-intent deployment the
     coverage complement exceeds the cube budget, so NA094 stays
     silent by design (exactness by refusal). *)
  List.iter
    (fun code ->
      checkb (code ^ " demonstrated by the corpus") true
        (Hashtbl.mem seen code))
    [ "NA090"; "NA092"; "NA093" ]

(* ---------------- stable report ordering ---------------- *)

let test_stable_report_order () =
  let corpus = mutated_corpus () in
  let diags = Check.check_queries corpus in
  let json_order diags =
    match
      Newton_util.Json.member "diagnostics" (Check.report_to_json diags)
    with
    | Some (Newton_util.Json.List items) ->
        List.map Newton_util.Json.to_string items
    | _ -> Alcotest.fail "diagnostics array expected"
  in
  (* registration/severity order in, (query, span, code) order out:
     reversing the input must not change the artifact *)
  Alcotest.(check (list string))
    "report order independent of pass emission order" (json_order diags)
    (json_order (List.rev diags));
  let keys =
    List.map
      (fun d -> (d.Diag.query_id, d.Diag.query_name))
      (List.sort Diag.compare_stable diags)
  in
  checkb "stable order groups by query" true
    (keys = List.sort compare keys)

let suite =
  [
    ("atom boundaries", `Quick, test_atom_boundaries);
    ("cross-mask exactness", `Quick, test_cross_mask_exactness);
    ("Q17 containment against catalog peers", `Quick,
     test_catalog_containment);
    ("NA090 cross-mask unsat + witness", `Quick, test_na090_cross_mask);
    ("NA022 across two masks of one field", `Quick, test_na022_cross_mask);
    ("budget refuses before absorbing", `Quick, test_budget_refuses_at_once);
    ("NA091 subsumed branch + witness", `Quick, test_na091_subsumed_branch);
    ("NA092 shadowed intent + witness", `Quick, test_na092_shadowed_intent);
    ("NA092 skips unfiltered peers", `Quick, test_na092_skips_unfiltered_peers);
    ("NA092 not raised by an identical resident", `Quick, test_na092_identical_resident);
    ("NA091/NA092 witness past the diff budget", `Quick,
     test_witness_without_difference);
    ("NA093 witness recirculates (p4sim)", `Quick,
     test_na093_witness_recirculates);
    ("NA093 quiet on disjoint branches", `Quick,
     test_na093_quiet_on_disjoint_branches);
    ("NA094 coverage gap + witness", `Quick, test_na094_coverage_gap);
    ("NA094 quiet when covered", `Quick, test_na094_quiet_when_covered);
    ("witness replay sweep", `Quick, test_witness_replay_sweep);
    ("stable report order", `Quick, test_stable_report_order);
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_atom_matches_ref_eval;
        prop_conjunction;
        prop_boolean_algebra;
        prop_model_satisfies;
        prop_identity_operands_keep_cubes;
        prop_subset_is_containment;
        prop_subset_agrees_wide;
        prop_subset_agrees_narrow;
        prop_universe_equal_agree_with_diff;
        prop_witness_outside_wide;
        prop_witness_outside_narrow;
        prop_witness_outside_is_model_of_diff;
        prop_predicate_findings_exact;
      ]
