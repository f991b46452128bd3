(** Tests for the P4 program generator and the runtime rule generator. *)

open Newton_p4gen

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let count_occurrences s sub =
  let m = String.length sub in
  let rec go i acc =
    if i + m > String.length s then acc
    else if String.sub s i m = sub then go (i + m) (acc + 1)
    else go (i + 1) acc
  in
  if m = 0 then 0 else go 0 0

let small_layout = { Emit.stages = 3; registers = 1024; rules_per_table = 64 }

(* ---------------- program emission ---------------- *)

let test_program_structure () =
  let p = Emit.program ~layout:small_layout () in
  List.iter
    (fun piece -> checkb ("contains " ^ piece) true (contains p piece))
    [ "#include <v1model.p4>"; "header sp_t"; "struct metadata_t";
      "parser NewtonParser"; "control NewtonIngress"; "table newton_init";
      "table newton_fin"; "V1Switch"; "NewtonDeparser" ]

let test_program_table_counts () =
  let p = Emit.program ~layout:small_layout () in
  (* 3 stages x 2 sets per module kind (K, H, S, R, plus R's trigger T) *)
  checki "K tables" 6 (count_occurrences p "table newton_k_s");
  checki "H tables" 6 (count_occurrences p "table newton_h_s");
  checki "S tables" 6 (count_occurrences p "table newton_s_s");
  checki "R tables" 6 (count_occurrences p "table newton_r_s");
  checki "T tables" 6 (count_occurrences p "table newton_t_s");
  (* one global register file sized per (stage, set) bank *)
  checki "register file" 1
    (count_occurrences p "register<bit<32>>(6144) newton_state;")

let test_program_sp_layout () =
  let p = Emit.program ~layout:small_layout () in
  (* The SP header carries the full per-set hash/state results plus
     the global results between hops. *)
  checkb "class id 16 bits" true (contains p "bit<16> class_id;");
  checkb "hash fields 32 bits" true (contains p "bit<32> hash1;");
  checkb "state fields 32 bits" true (contains p "bit<32> state1;");
  checkb "fin exports hash results into the SP header" true
    (contains p "hdr.sp.hash0 = meta.hash0_result;");
  checkb "fin emits on the SP ethertype" true (contains p "0x88B5")

let test_program_applies_all_modules () =
  let p = Emit.program ~layout:small_layout () in
  (* every module table (5 kinds x 3 stages x 2 sets) is applied
     exactly once in the control flow *)
  checki "apply calls" 30 (count_occurrences p "_m0.apply()" + count_occurrences p "_m1.apply()")

let test_program_scales_with_layout () =
  let small = Emit.program ~layout:small_layout () in
  let large = Emit.program ~layout:{ small_layout with Emit.stages = 12 } () in
  checkb "more stages emit more code" true (String.length large > String.length small)

let test_program_rejects_bad_layout () =
  checkb "rejects zero stages" true
    (try ignore (Emit.program ~layout:{ small_layout with Emit.stages = 0 } ()); false
     with Invalid_argument _ -> true)

let test_table_names_stable () =
  Alcotest.(check string) "table name scheme" "newton_s_s4_m1"
    (Emit.table_name ~stage:4 ~kind:Newton_dataplane.Module_cost.S ~set:1)

(* ---------------- rule generation ---------------- *)

let compile = Newton_compiler.Compose.compile

let test_rules_cover_compiled_slots () =
  (* Every used module slot of every catalog query gets at least one
     entry in its module table, and every query configures the
     classifier — the rule document fully deploys what the compiler
     placed. *)
  List.iter
    (fun q ->
      let c = compile q in
      let entries = Rules.entries_exn c in
      let used =
        Array.to_list c.Newton_compiler.Compose.branches
        |> List.concat
        |> List.filter (fun (s : Newton_compiler.Ir.slot) ->
               s.Newton_compiler.Ir.used && not s.Newton_compiler.Ir.removed)
      in
      checkb (Printf.sprintf "Q%d: has used slots" q.Newton_query.Ast.id) true
        (used <> []);
      List.iter
        (fun (s : Newton_compiler.Ir.slot) ->
          let table =
            Emit.table_name ~stage:s.Newton_compiler.Ir.stage
              ~kind:s.Newton_compiler.Ir.kind ~set:s.Newton_compiler.Ir.meta
          in
          (* a threshold/report R configures its paired trigger table
             instead of the R table itself *)
          let trigger =
            Emit.trigger_name ~stage:s.Newton_compiler.Ir.stage
              ~set:s.Newton_compiler.Ir.meta
          in
          checkb
            (Printf.sprintf "Q%d: %s configured" q.Newton_query.Ast.id table)
            true
            (List.exists
               (fun (e : Rules.entry) ->
                 e.Rules.table = table || e.Rules.table = trigger)
               entries))
        used;
      checkb
        (Printf.sprintf "Q%d: classifier configured" q.Newton_query.Ast.id)
        true
        (List.exists
           (fun (e : Rules.entry) -> e.Rules.table = "newton_init")
           entries))
    (Newton_query.Catalog.all ())

let test_rules_reference_emitted_tables () =
  let layout = { Emit.default_layout with Emit.stages = 12 } in
  let p = Emit.program ~layout () in
  let c = compile (Newton_query.Catalog.q4 ()) in
  List.iter
    (fun (e : Rules.entry) ->
      checkb ("emitted program declares " ^ e.Rules.table) true
        (contains p ("table " ^ e.Rules.table)))
    (Rules.entries_exn c)

let test_rules_init_entry_shape () =
  let c = compile (Newton_query.Catalog.q1 ()) in
  match List.filter (fun (e : Rules.entry) -> e.Rules.table = "newton_init") (Rules.entries_exn c) with
  | [ e ] ->
      Alcotest.(check string) "action" "set_class" e.Rules.action;
      checkb "ternary matches on proto+flags" true (List.length e.Rules.matches = 2)
  | l -> Alcotest.failf "expected 1 init entry, got %d" (List.length l)

let test_rules_k_masks () =
  let c = compile (Newton_query.Catalog.q1 ()) in
  let k_entries =
    List.filter
      (fun (e : Rules.entry) -> contains e.Rules.action "_select")
      (Rules.entries_exn c)
  in
  checkb "K entries exist" true (k_entries <> []);
  List.iter
    (fun (e : Rules.entry) ->
      (* Q1 selects dip: its mask parameter is full, others zero. *)
      let full =
        List.filter (fun (_, v) -> v = "0xffffffff") e.Rules.params
      in
      checki "exactly one selected field" 1 (List.length full))
    k_entries

let test_rules_threshold_becomes_range () =
  let c = compile (Newton_query.Catalog.q1 ~th:30 ()) in
  let has_range =
    List.exists
      (fun (e : Rules.entry) ->
        List.exists
          (function Rules.M_range ("meta.global_result", 31, _) -> true | _ -> false)
          e.Rules.matches)
      (Rules.entries_exn c)
  in
  checkb "count > 30 compiles to a [31, max] range match" true has_range

let test_rules_distinct_classes_per_branch () =
  let c = compile (Newton_query.Catalog.by_id 6) in
  let inits =
    List.filter (fun (e : Rules.entry) -> e.Rules.table = "newton_init") (Rules.entries_exn c)
  in
  let classes =
    List.filter_map
      (fun (e : Rules.entry) -> List.assoc_opt "class_id" e.Rules.params)
      inits
    |> List.sort_uniq compare
  in
  checki "two branches, two traffic classes" 2 (List.length classes)

let test_rules_json_renders () =
  let c = compile (Newton_query.Catalog.q4 ()) in
  let json = Rules.to_json (Rules.entries_exn c) in
  checkb "json array" true (String.length json > 2 && json.[0] = '[');
  checkb "mentions the classifier" true (contains json "newton_init");
  checkb "no unescaped quotes in fields" true (not (contains json "\"\"\""));
  (* entry count = line count of entries *)
  checki "one line per entry"
    (List.length (Rules.entries_exn c))
    (count_occurrences json "{\"table\"")

let test_rules_fit_emitted_table_sizes () =
  (* Per-table entry counts of a full catalog deployment stay within the
     emitted table sizes. *)
  let per_table = Hashtbl.create 64 in
  List.iteri
    (fun i q ->
      List.iter
        (fun (e : Rules.entry) ->
          Hashtbl.replace per_table e.Rules.table
            (1 + Option.value (Hashtbl.find_opt per_table e.Rules.table) ~default:0))
        (Rules.entries_exn ~class_id:(1 + (i * 10)) (compile q)))
    (Newton_query.Catalog.all ());
  let cap = Emit.default_layout.Emit.rules_per_table in
  Hashtbl.iter
    (fun table n ->
      let limit = if table = "newton_init" then 4 * cap else cap in
      checkb (table ^ " within size") true (n <= limit))
    per_table

(* ---------------- field-mapping totality (all 18 constructors) ----- *)

let test_field_mappings_total () =
  let fields = Newton_packet.Field.all in
  checki "catalog of fields" 18 (List.length fields);
  let p = Emit.program () in
  List.iter
    (fun f ->
      (* Every field has a classifier spelling, a canonical metadata
         spelling, per-set key copies — and the emitted program
         declares each of them.  A new Field constructor that reaches
         main without growing these maps fails here, not at a switch
         deployment. *)
      let init = Rules.init_field_name f in
      let meta = Emit.meta_field f in
      Alcotest.(check string)
        (Newton_packet.Field.to_string f ^ " classifier = canonical meta")
        meta init;
      checkb (meta ^ " declared in metadata_t") true
        (contains p
           (Printf.sprintf "bit<32> f_%s;" (Emit.field_slug f)));
      List.iter
        (fun set ->
          let key = Emit.key_field ~set f in
          checkb (key ^ " key copy declared") true
            (contains p
               (Printf.sprintf "bit<32> key%d_%s;" set (Emit.field_slug f))))
        [ 0; 1 ];
      (* the report struct carries every key copy positionally *)
      checkb ("report field k_" ^ Emit.field_slug f) true
        (contains p (Printf.sprintf "bit<32> k_%s;" (Emit.field_slug f))))
    fields

let test_descriptor_encoding () =
  let key f = { Newton_query.Ast.field = f; mask = 0xFFFFFFFF } in
  checki "empty key list" 0 (Rules.descriptor []);
  (* position p holds Field.index + 1 in 5 bits, low-to-high *)
  checki "dip then sport"
    ((Newton_packet.Field.index Newton_packet.Field.Dst_ip + 1)
    lor ((Newton_packet.Field.index Newton_packet.Field.Src_port + 1) lsl 5))
    (Rules.descriptor [ key Newton_packet.Field.Dst_ip; key Newton_packet.Field.Src_port ]);
  (* the highest field index still fits its 5-bit position *)
  let last = List.nth Newton_packet.Field.all 17 in
  checki "last field code fits 5 bits"
    (Newton_packet.Field.index last + 1)
    (Rules.descriptor [ key last ] land 0x1F)

(* ---------------- typed issues ---------------- *)

let test_registers_exhausted_is_typed () =
  (* A one-word register file cannot hold any catalog query's state:
     the generator reports a typed issue, never an exception. *)
  let alloc = Rules.allocator ~state_words:1 Emit.default_layout in
  match Rules.entries ~alloc (compile (Newton_query.Catalog.q1 ())) with
  | Error (Rules.Registers_exhausted { capacity = 1; needed }) ->
      checkb "needed exceeds capacity" true (needed > 1)
  | Error i -> Alcotest.failf "unexpected issue: %s" (Rules.issue_to_string i)
  | Ok _ -> Alcotest.fail "expected Registers_exhausted"

let test_entries_exn_raises_on_issue () =
  let alloc = Rules.allocator ~state_words:1 Emit.default_layout in
  checkb "entries_exn raises Invalid_argument" true
    (try
       ignore (Rules.entries_exn ~alloc (compile (Newton_query.Catalog.q1 ())));
       false
     with Invalid_argument _ -> true)

let test_shared_allocator_co_residency () =
  (* Two queries carved from one allocator never share state words. *)
  let alloc = Rules.allocator ~state_words:max_int Emit.default_layout in
  let q1 = compile (Newton_query.Catalog.q1 ()) in
  let e1 = Rules.entries_exn ~class_id:1 ~alloc q1 in
  let w1 = Rules.words_used alloc in
  let e4 = Rules.entries_exn ~class_id:11 ~alloc (compile (Newton_query.Catalog.q4 ())) in
  let w2 = Rules.words_used alloc in
  checkb "first query allocates" true (w1 > 0);
  checkb "second query allocates beyond the first" true (w2 > w1);
  let bases entries =
    List.concat_map
      (fun (e : Rules.entry) ->
        match List.assoc_opt "base" e.Rules.params with
        | Some b -> [ int_of_string b ]
        | None -> [])
      entries
  in
  List.iter
    (fun b4 -> checkb "offsets disjoint" true (b4 >= w1))
    (List.filter (fun b -> b > 0) (bases e4));
  ignore e1

let suite =
  [
    ("program structure", `Quick, test_program_structure);
    ("program table counts", `Quick, test_program_table_counts);
    ("program sp layout", `Quick, test_program_sp_layout);
    ("program applies all modules", `Quick, test_program_applies_all_modules);
    ("program scales with layout", `Quick, test_program_scales_with_layout);
    ("program rejects bad layout", `Quick, test_program_rejects_bad_layout);
    ("table names stable", `Quick, test_table_names_stable);
    ("rules cover compiled slots", `Quick, test_rules_cover_compiled_slots);
    ("rules reference emitted tables", `Quick, test_rules_reference_emitted_tables);
    ("rules init entry shape", `Quick, test_rules_init_entry_shape);
    ("rules k masks", `Quick, test_rules_k_masks);
    ("rules threshold becomes range", `Quick, test_rules_threshold_becomes_range);
    ("rules distinct classes per branch", `Quick, test_rules_distinct_classes_per_branch);
    ("rules json renders", `Quick, test_rules_json_renders);
    ("rules fit emitted table sizes", `Quick, test_rules_fit_emitted_table_sizes);
    ("field mappings total over all 18 fields", `Quick, test_field_mappings_total);
    ("descriptor encoding", `Quick, test_descriptor_encoding);
    ("registers exhausted is typed", `Quick, test_registers_exhausted_is_typed);
    ("entries_exn raises on issue", `Quick, test_entries_exn_raises_on_issue);
    ("shared allocator co-residency", `Quick, test_shared_allocator_co_residency);
  ]
