(** Tests for Newton_analysis: the catalog is diagnostically clean
    (golden baseline), one deliberately bad intent per diagnostic
    code, JSON report stability, the deployment admission gate, and a
    check-never-raises property over generated queries. *)

open Newton_packet
open Newton_query
module Diag = Newton_analysis.Diag
module Pass = Newton_analysis.Pass
module Check = Newton_analysis.Check

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let codes diags = List.map (fun d -> d.Diag.code) diags
let has code diags = List.mem code (codes diags)

let has_sev code sev diags =
  List.exists (fun d -> d.Diag.code = code && d.Diag.severity = sev) diags

(* ---------------- construction helpers ---------------- *)

let dip = Ast.key Field.Dst_ip
let sip = Ast.key Field.Src_ip
let sport = Ast.key Field.Src_port

let reduce keys = Ast.Reduce { keys; agg = Ast.Count }

(* The canonical well-formed tail: map → reduce → threshold → project. *)
let tail keys th =
  [ Ast.Map keys; reduce keys; Ast.Filter [ Ast.result_gt th ]; Ast.Map keys ]

let chain1 prims = Ast.chain ~id:900 ~name:"bad" ~description:"" prims

let mk ?combine branches =
  Ast.make ?combine ~id:900 ~name:"bad" ~description:"" branches

let sub_combine = { Ast.op = Ast.Sub; threshold = Ast.result_gt 10 }

(* ---------------- golden: the catalog is clean ---------------- *)

let all_queries () = Catalog.all () @ Catalog.extras ()

(* Clean = no warnings or errors.  Info-severity notes (e.g. NA082's
   recirculation-bandwidth advisory) are expected on some catalog
   queries and survive --strict, so they don't break the golden. *)
let actionable diags =
  List.filter (fun d -> d.Diag.severity <> Diag.Info) diags

let test_catalog_clean () =
  List.iter
    (fun q ->
      Alcotest.(check (list string))
        (Printf.sprintf "%s clean" q.Ast.name)
        []
        (codes (actionable (Check.check_query q))))
    (all_queries ())

let test_catalog_clean_together () =
  checki "no actionable diagnostics across the combined set" 0
    (List.length (actionable (Check.check_queries (all_queries ()))))

let test_na093_recirculation_info () =
  (* Q12's branches overlap (a packet can be both DNS query and
     response side), so the space pass proves the extra pipeline pass —
     as an Info with a witness, never an error. *)
  let ds = Check.check_query (Catalog.q12 ()) in
  checkb "NA093 info on overlapping-branch query" true
    (has_sev "NA093" Diag.Info ds);
  checkb "no NA093 error" true (not (has_sev "NA093" Diag.Error ds));
  match List.find_opt (fun d -> d.Diag.code = "NA093") ds with
  | None -> Alcotest.fail "NA093 diagnostic expected"
  | Some d -> checkb "NA093 carries a witness" true (d.Diag.witness <> None)

(* ---------------- structure (NA001-NA009) ---------------- *)

let test_na001_empty_query () =
  checkb "NA001" true (has_sev "NA001" Diag.Error (Check.check_query (mk [])))

let test_na002_empty_branch () =
  checkb "NA002" true
    (has_sev "NA002" Diag.Error (Check.check_query (mk [ [] ])))

let test_na003_missing_combine () =
  let q = mk [ tail [ dip ] 5; tail [ sip ] 5 ] in
  checkb "NA003" true (has_sev "NA003" Diag.Error (Check.check_query q))

let test_na004_combine_without_branches () =
  let q = mk ~combine:sub_combine [ tail [ dip ] 5 ] in
  checkb "NA004" true (has_sev "NA004" Diag.Error (Check.check_query q))

let test_na005_threshold_before_state () =
  let q = chain1 [ Ast.Filter [ Ast.result_gt 5 ]; Ast.Map [ dip ] ] in
  checkb "NA005" true (has_sev "NA005" Diag.Error (Check.check_query q))

let test_na006_empty_keys () =
  let q = chain1 [ Ast.Map [] ] in
  checkb "NA006" true (has_sev "NA006" Diag.Error (Check.check_query q))

let test_na007_combine_branch_without_reduce () =
  let q = mk ~combine:sub_combine [ tail [ dip ] 5; [ Ast.Map [ dip ] ] ] in
  checkb "NA007" true (has_sev "NA007" Diag.Error (Check.check_query q))

let test_na008_combine_field_threshold () =
  let combine = { Ast.op = Ast.Sub; threshold = Ast.field_is Field.Proto 6 } in
  let q = mk ~combine [ tail [ dip ] 5; tail [ dip ] 5 ] in
  checkb "NA008" true (has_sev "NA008" Diag.Error (Check.check_query q))

let test_na009_combine_arity () =
  let q =
    mk ~combine:sub_combine [ tail [ dip ] 5; tail [ dip ] 5; tail [ dip ] 5 ]
  in
  checkb "NA009" true (has_sev "NA009" Diag.Error (Check.check_query q))

(* ---------------- widths (NA010-NA014) ---------------- *)

let test_na010_mask_wider_than_field () =
  let q = chain1 (tail [ Ast.key ~mask:0x1FFFF Field.Src_port ] 5) in
  checkb "NA010" true (has_sev "NA010" Diag.Error (Check.check_query q))

let test_na011_zero_mask () =
  let q = chain1 (tail [ Ast.key ~mask:0 Field.Dst_ip ] 5) in
  checkb "NA011" true (has_sev "NA011" Diag.Error (Check.check_query q))

let test_na012_value_too_wide () =
  let pred =
    Ast.Cmp { field = Field.Src_port; mask = 0xFFFF; op = Ast.Gt; value = 70000 }
  in
  let q = chain1 (Ast.Filter [ pred ] :: tail [ dip ] 5) in
  checkb "NA012" true (has_sev "NA012" Diag.Error (Check.check_query q))

let test_na013_eq_value_outside_mask () =
  let pred =
    Ast.Cmp { field = Field.Src_port; mask = 0xFF00; op = Ast.Eq; value = 0x1234 }
  in
  let q = chain1 (Ast.Filter [ pred ] :: tail [ dip ] 5) in
  checkb "NA013" true (has_sev "NA013" Diag.Error (Check.check_query q))

let test_na014_packed_filter_too_wide () =
  (* Two equality predicates summing to 40 mask bits, placed mid-chain
     so newton_init absorption cannot rescue them. *)
  let wide =
    Ast.Filter
      [ Ast.field_is Field.Src_ip 0x0A000001; Ast.field_is Field.Proto 6 ]
  in
  let q = chain1 ([ Ast.Map [ sip ] ] @ [ wide ] @ tail [ sip ] 5) in
  checkb "NA014" true (has_sev "NA014" Diag.Warning (Check.check_query q))

let test_na015_icmp_field_without_proto () =
  (* Filtering on icmp.type without pinning the protocol silently
     matches the zero type the decoder leaves on non-ICMP packets. *)
  let q =
    chain1 (Ast.Filter [ Ast.field_is Field.Icmp_type 128 ] :: tail [ sip ] 5)
  in
  checkb "NA015 filter" true (has_sev "NA015" Diag.Warning (Check.check_query q));
  (* Keying on icmp.code without the pin is the same mistake. *)
  let q = chain1 (tail [ Ast.key Field.Icmp_code ] 5) in
  checkb "NA015 key" true (has_sev "NA015" Diag.Warning (Check.check_query q));
  (* Pinning the protocol anywhere in the branch silences it. *)
  let pinned =
    chain1
      (Ast.Filter
         [
           Ast.field_is Field.Proto Field.Protocol.icmpv6;
           Ast.field_is Field.Icmp_type 128;
         ]
      :: tail [ sip ] 5)
  in
  checkb "pinned branch is quiet" false (has "NA015" (Check.check_query pinned))

(* ---------------- predicates (NA021, NA022, NA090) ---------------- *)

let gt v = Ast.Cmp { field = Field.Src_port; mask = 0xFFFF; op = Ast.Gt; value = v }
let lt v = Ast.Cmp { field = Field.Src_port; mask = 0xFFFF; op = Ast.Lt; value = v }

let test_na090_unsat_conjunction () =
  let q = chain1 (Ast.Filter [ gt 100; lt 50 ] :: tail [ dip ] 5) in
  checkb "NA090" true (has_sev "NA090" Diag.Error (Check.check_query q))

let test_na021_tautology () =
  let always =
    Ast.Cmp { field = Field.Src_port; mask = 0xFFFF; op = Ast.Ge; value = 0 }
  in
  let q = chain1 (Ast.Filter [ always ] :: tail [ dip ] 5) in
  checkb "NA021" true (has_sev "NA021" Diag.Warning (Check.check_query q))

let test_na022_implied_filter () =
  let q =
    chain1
      (Ast.Filter [ gt 100 ] :: Ast.Map [ dip; sport ] :: Ast.Filter [ gt 50 ]
       :: tail [ dip ] 5)
  in
  checkb "NA022" true (has_sev "NA022" Diag.Warning (Check.check_query q))

(* ---------------- dataflow (NA025-NA026) ---------------- *)

let test_na025_partially_dead_map () =
  let q =
    chain1
      [
        Ast.Map [ dip; sport ];
        reduce [ dip ];
        Ast.Filter [ Ast.result_gt 5 ];
        Ast.Map [ dip ];
      ]
  in
  checkb "NA025" true (has_sev "NA025" Diag.Warning (Check.check_query q))

let test_na026_dead_map () =
  let q =
    chain1
      [
        Ast.Map [ sport ];
        Ast.Map [ dip ];
        reduce [ dip ];
        Ast.Filter [ Ast.result_gt 5 ];
        Ast.Map [ dip ];
      ]
  in
  checkb "NA026" true (has_sev "NA026" Diag.Warning (Check.check_query q))

(* ---------------- thresholds (NA030-NA031) ---------------- *)

let test_na030_unreachable_threshold () =
  let q =
    chain1
      [
        Ast.Map [ dip ];
        reduce [ dip ];
        Ast.Filter [ Ast.Result_cmp { op = Ast.Gt; value = 0x7FFFFFFF } ];
        Ast.Map [ dip ];
      ]
  in
  checkb "NA030" true (has_sev "NA030" Diag.Error (Check.check_query q))

let test_na031_trivial_threshold () =
  let q =
    chain1
      [
        Ast.Map [ dip ];
        reduce [ dip ];
        Ast.Filter [ Ast.Result_cmp { op = Ast.Ge; value = 0 } ];
        Ast.Map [ dip ];
      ]
  in
  checkb "NA031" true (has_sev "NA031" Diag.Warning (Check.check_query q))

(* ---------------- sketches (NA040-NA042) ---------------- *)

let narrow registers =
  {
    Pass.default_config with
    Pass.options =
      { Newton_compiler.Decompose.default_options with registers };
  }

let test_na040_bloom_fpr () =
  let diags = Check.check_query ~cfg:(narrow 512) (Catalog.by_id 3) in
  checkb "NA040" true (has_sev "NA040" Diag.Warning diags)

let test_na041_cm_bounds () =
  let q = chain1 (tail [ dip ] 5) in
  let diags = Check.check_query ~cfg:(narrow 128) q in
  checkb "NA041" true (has_sev "NA041" Diag.Warning diags)

let test_na042_impossible_sketch () =
  let q = chain1 (tail [ dip ] 5) in
  let diags = Check.check_query ~cfg:(narrow 0) q in
  checkb "NA042" true (has_sev "NA042" Diag.Error diags)

(* ---------------- compilability (NA045) ---------------- *)

let test_na045_uncompilable () =
  (* Structurally valid, but decompose refuses two aggregate
     predicates in one filter. *)
  let q =
    chain1
      [
        Ast.Map [ dip ];
        reduce [ dip ];
        Ast.Filter [ Ast.result_gt 5; Ast.result_gt 7 ];
        Ast.Map [ dip ];
      ]
  in
  checkb "NA045" true (has_sev "NA045" Diag.Error (Check.check_query q))

(* ---------------- capacity (NA050-NA053) ---------------- *)

let test_na050_cell_overflow () =
  let cfg = { Pass.default_config with Pass.rule_capacity = 0 } in
  let diags = Check.check_query ~cfg (Catalog.q1 ()) in
  checkb "NA050" true (has_sev "NA050" Diag.Error diags)

let test_na052_register_budget () =
  let cfg = { Pass.default_config with Pass.register_budget = 1 } in
  let diags = Check.check_query ~cfg (Catalog.q1 ()) in
  checkb "NA052" true (has_sev "NA052" Diag.Error diags)

let shallow_target =
  Pass.target ~stages_per_switch:4 ~num_switches:1 ~switch_slices:[| [ 1 ] |]
    ~slice_ranges:[| (0, 3) |] ~max_path_depth:1

let test_na053_tail_beyond_path () =
  (* Q6 needs 7 stages = 2 slices of 4; a path one switch deep cannot
     host the second. *)
  let diags = Check.check_query ~target:shallow_target (Catalog.by_id 6) in
  checkb "NA053" true (has_sev "NA053" Diag.Warning diags)

let overcommit_target =
  Pass.target ~stages_per_switch:4 ~num_switches:1
    ~switch_slices:[| [ 1; 2 ] |]
    ~slice_ranges:[| (0, 3); (4, 6) |]
    ~max_path_depth:2

let test_na051_switch_overcommit () =
  let diags = Check.check_query ~target:overcommit_target (Catalog.by_id 6) in
  checkb "NA051" true (has_sev "NA051" Diag.Warning diags)

(* ---------------- conflicts (NA060-NA061) ---------------- *)

let th_query ~id ~name th =
  Ast.chain ~id ~name ~description:"" (tail [ dip ] th)

let test_na060_shape_conflict () =
  let a = th_query ~id:901 ~name:"a" 10 and b = th_query ~id:902 ~name:"b" 20 in
  let diags = Check.check_queries [ a; b ] in
  checkb "NA060" true (has_sev "NA060" Diag.Warning diags)

let test_na061_exact_duplicate () =
  let a = th_query ~id:901 ~name:"a" 10 and b = th_query ~id:902 ~name:"b" 10 in
  let diags = Check.check_queries [ a; b ] in
  checkb "NA061" true (has_sev "NA061" Diag.Info diags)

(* ---------------- slice cuts (NA071) ---------------- *)

let test_na071_cross_slice_read () =
  (* At 4 stages per slice Q6's combine read-back lands one slice after
     the sibling's array: admitted, but it reads zeros remotely. *)
  let diags = Check.check_query ~target:overcommit_target (Catalog.by_id 6) in
  checkb "NA071" true (has_sev "NA071" Diag.Warning diags)

(* ---------------- report rendering ---------------- *)

let test_json_stability () =
  let q = chain1 (tail [ dip ] 5) in
  let d =
    Diag.make ~code:"NA011" ~severity:Diag.Error
      ~span:(Diag.Prim { branch = 0; prim = 0 })
      ~hint:"h" ~query:q "zero mask"
  in
  checks "diag json"
    "{\"code\":\"NA011\",\"severity\":\"error\",\"query_id\":900,\
     \"query_name\":\"bad\",\"span\":\"b0.p0\",\"message\":\"zero mask\",\
     \"hint\":\"h\"}"
    (Newton_util.Json.to_string (Diag.to_json d));
  let report = Check.report_to_json [ d ] in
  checks "report summary"
    "{\"errors\":1,\"warnings\":0,\"infos\":0}"
    (Newton_util.Json.to_string
       (Option.get (Newton_util.Json.member "summary" report)))

let test_exit_codes () =
  let q = chain1 (tail [ dip ] 5) in
  let err = Diag.make ~code:"NA030" ~severity:Diag.Error ~query:q "e" in
  let warn = Diag.make ~code:"NA031" ~severity:Diag.Warning ~query:q "w" in
  let info = Diag.make ~code:"NA061" ~severity:Diag.Info ~query:q "i" in
  checki "clean" 0 (Check.exit_code []);
  checki "info" 0 (Check.exit_code [ info ]);
  checki "warn" 1 (Check.exit_code [ warn; info ]);
  checki "error" 2 (Check.exit_code [ err; warn ]);
  checki "strict promotes warnings" 2 (Check.exit_code ~strict:true [ warn ]);
  checki "strict keeps clean" 0 (Check.exit_code ~strict:true [ info ])

let test_errors_sort_first () =
  let q = chain1 (Ast.Filter [ gt 100; lt 50; gt 50 ] :: tail [ dip ] 5) in
  match Check.check_query q with
  | [] -> Alcotest.fail "expected diagnostics"
  | first :: _ -> checkb "error first" true (first.Diag.severity = Diag.Error)

(* ---------------- deployment admission gate ---------------- *)

module Deploy = Newton_controller.Deploy
module Topo = Newton_network.Topo

let compile q = Newton_compiler.Compose.compile q

let unreachable_query =
  Ast.chain ~id:903 ~name:"unreachable" ~description:""
    [
      Ast.Map [ dip ];
      reduce [ dip ];
      Ast.Filter [ Ast.Result_cmp { op = Ast.Gt; value = 0x7FFFFFFF } ];
      Ast.Map [ dip ];
    ]

let trivial_query =
  Ast.chain ~id:904 ~name:"trivial" ~description:""
    [
      Ast.Map [ dip ];
      reduce [ dip ];
      Ast.Filter [ Ast.Result_cmp { op = Ast.Ge; value = 0 } ];
      Ast.Map [ dip ];
    ]

let test_deploy_rejects_errors () =
  let ctl = Deploy.create (Topo.linear 2) in
  (match Deploy.deploy ctl (compile unreachable_query) with
  | _ -> Alcotest.fail "deploy should have been rejected"
  | exception Deploy.Rejected diags ->
      checkb "carries NA030" true (has "NA030" diags));
  checki "no deployment recorded" 0 (List.length (Deploy.deployments ctl));
  List.iter
    (fun s ->
      checki
        (Printf.sprintf "switch %d has no rules" s)
        0
        (Newton_runtime.Engine.total_rules (Deploy.engine ctl s)))
    (Topo.switches (Deploy.topo ctl));
  checkb "rejection counted" true
    (Newton_telemetry.Snapshot.total "newton_analysis_rejections_total"
       (Deploy.snapshot ctl)
    >= 1.0)

let test_deploy_admits_warnings () =
  let ctl = Deploy.create (Topo.linear 2) in
  let uid, _ = Deploy.deploy ctl (compile trivial_query) in
  checkb "deployment recorded" true (Deploy.find_deployment ctl uid <> None);
  checkb "warning counted" true
    (Newton_telemetry.Snapshot.total "newton_analysis_warnings_total"
       (Deploy.snapshot ctl)
    >= 1.0)

let test_deploy_clean_counts_nothing () =
  let ctl = Deploy.create (Topo.linear 2) in
  let _ = Deploy.deploy ctl (compile (Catalog.q1 ())) in
  let snap = Deploy.snapshot ctl in
  checkb "no rejections" true
    (Newton_telemetry.Snapshot.total "newton_analysis_rejections_total" snap
    = 0.0);
  checkb "no warnings" true
    (Newton_telemetry.Snapshot.total "newton_analysis_warnings_total" snap
    = 0.0)

(* ---------------- properties ---------------- *)

(* Analysis is total: parser/constructor-accepted queries never make
   [check_query] raise, whatever the diagnostics. *)
let prop_check_never_raises =
  QCheck.Test.make ~count:200 ~name:"check_query never raises"
    Test_properties.arb_query (fun q ->
      ignore (Check.check_query q);
      true)

let prop_check_matches_validate =
  QCheck.Test.make ~count:200 ~name:"generated valid queries have no errors"
    Test_properties.arb_query (fun q ->
      not (Diag.has_errors (Check.check_query q)))

let suite =
  [
    ("catalog clean", `Quick, test_catalog_clean);
    ("catalog clean together", `Quick, test_catalog_clean_together);
    ("NA093 recirculation info", `Quick, test_na093_recirculation_info);
    ("NA001 empty query", `Quick, test_na001_empty_query);
    ("NA002 empty branch", `Quick, test_na002_empty_branch);
    ("NA003 missing combine", `Quick, test_na003_missing_combine);
    ("NA004 combine without branches", `Quick, test_na004_combine_without_branches);
    ("NA005 threshold before state", `Quick, test_na005_threshold_before_state);
    ("NA006 empty keys", `Quick, test_na006_empty_keys);
    ("NA007 branch without reduce", `Quick, test_na007_combine_branch_without_reduce);
    ("NA008 field combine threshold", `Quick, test_na008_combine_field_threshold);
    ("NA009 combine arity", `Quick, test_na009_combine_arity);
    ("NA010 wide mask", `Quick, test_na010_mask_wider_than_field);
    ("NA011 zero mask", `Quick, test_na011_zero_mask);
    ("NA012 wide value", `Quick, test_na012_value_too_wide);
    ("NA013 value outside mask", `Quick, test_na013_eq_value_outside_mask);
    ("NA014 packed filter", `Quick, test_na014_packed_filter_too_wide);
    ("NA015 icmp field without proto pin", `Quick,
     test_na015_icmp_field_without_proto);
    ("NA090 unsat conjunction", `Quick, test_na090_unsat_conjunction);
    ("NA021 tautology", `Quick, test_na021_tautology);
    ("NA022 implied filter", `Quick, test_na022_implied_filter);
    ("NA025 partially dead map", `Quick, test_na025_partially_dead_map);
    ("NA026 dead map", `Quick, test_na026_dead_map);
    ("NA030 unreachable threshold", `Quick, test_na030_unreachable_threshold);
    ("NA031 trivial threshold", `Quick, test_na031_trivial_threshold);
    ("NA040 bloom fpr", `Quick, test_na040_bloom_fpr);
    ("NA041 cm bounds", `Quick, test_na041_cm_bounds);
    ("NA042 impossible sketch", `Quick, test_na042_impossible_sketch);
    ("NA045 uncompilable", `Quick, test_na045_uncompilable);
    ("NA050 cell overflow", `Quick, test_na050_cell_overflow);
    ("NA052 register budget", `Quick, test_na052_register_budget);
    ("NA053 tail beyond path", `Quick, test_na053_tail_beyond_path);
    ("NA051 switch overcommit", `Quick, test_na051_switch_overcommit);
    ("NA060 shape conflict", `Quick, test_na060_shape_conflict);
    ("NA061 exact duplicate", `Quick, test_na061_exact_duplicate);
    ("NA071 cross-slice read", `Quick, test_na071_cross_slice_read);
    ("json stability", `Quick, test_json_stability);
    ("exit codes", `Quick, test_exit_codes);
    ("errors sort first", `Quick, test_errors_sort_first);
    ("deploy rejects errors", `Quick, test_deploy_rejects_errors);
    ("deploy admits warnings", `Quick, test_deploy_admits_warnings);
    ("deploy clean counts nothing", `Quick, test_deploy_clean_counts_nothing);
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_check_never_raises; prop_check_matches_validate ]
