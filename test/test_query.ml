(** Tests for Newton_query: AST validation, the Q1–Q9 catalog, reports
    and the exact reference evaluator. *)

open Newton_packet
open Newton_query
open Newton_query.Ast

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* ---------------- AST ---------------- *)

let test_key_defaults_full_mask () =
  let k = key Field.Dst_ip in
  checki "full mask" (Field.full_mask Field.Dst_ip) k.mask

let test_cmp_holds () =
  checkb "eq" true (cmp_holds Eq 3 3);
  checkb "neq" true (cmp_holds Neq 3 4);
  checkb "gt" false (cmp_holds Gt 3 3);
  checkb "ge" true (cmp_holds Ge 3 3);
  checkb "lt" true (cmp_holds Lt 2 3);
  checkb "le" false (cmp_holds Le 4 3)

let test_validate_ok () =
  List.iter
    (fun q -> Alcotest.(check (list string)) ("valid " ^ q.name) []
        (List.map error_to_string (validate q)))
    (Catalog.all ())

let test_validate_empty_query () =
  let q = make ~id:0 ~name:"empty" ~description:"" [] in
  checkb "empty query invalid" false (is_valid q)

let test_validate_empty_branch () =
  let q = make ~id:0 ~name:"eb" ~description:"" [ [] ] in
  checkb "empty branch invalid" false (is_valid q)

let test_validate_missing_combine () =
  let b = [ Map (keys [ Field.Dst_ip ]) ] in
  let q = make ~id:0 ~name:"mc" ~description:"" [ b; b ] in
  checkb "two branches need combine" true (List.mem Missing_combine (validate q))

let test_validate_combine_single_branch () =
  let q =
    make ~id:0 ~name:"cs" ~description:""
      ~combine:{ op = Sub; threshold = result_gt 1 }
      [ [ Map (keys [ Field.Dst_ip ]) ] ]
  in
  checkb "combine without branches flagged" true
    (List.mem Combine_without_branches (validate q))

let test_validate_result_cmp_before_stateful () =
  let q = chain ~id:0 ~name:"rc" ~description:"" [ Filter [ result_gt 5 ] ] in
  checkb "Result_cmp needs upstream state" true
    (List.exists (function Reduce_after_nothing _ -> true | _ -> false) (validate q))

let test_validate_empty_keys () =
  let q = chain ~id:0 ~name:"ek" ~description:"" [ Map [] ] in
  checkb "empty keys flagged" true
    (List.exists (function Empty_keys _ -> true | _ -> false) (validate q))

let test_keys_equal () =
  let a = keys [ Field.Dst_ip; Field.Src_ip ] in
  let b = keys [ Field.Dst_ip; Field.Src_ip ] in
  let c = keys [ Field.Src_ip; Field.Dst_ip ] in
  checkb "equal" true (keys_equal a b);
  checkb "order matters" false (keys_equal a c);
  checkb "mask matters" false
    (keys_equal [ key ~mask:0xff Field.Dst_ip ] [ key Field.Dst_ip ])

let test_num_primitives () =
  checki "q1 has 5" 5 (num_primitives (Catalog.q1 ()));
  checki "q6 spans branches" 6 (num_primitives (Catalog.by_id 6))

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_to_string_plain () =
  let s = to_string (Catalog.q4 ()) in
  checkb "mentions distinct" true (contains s "distinct");
  checkb "mentions reduce" true (contains s "reduce");
  let s6 = to_string (Catalog.by_id 6) in
  checkb "mentions combine" true (contains s6 "combine")

(* ---------------- Catalog ---------------- *)

let test_catalog_ids_sequential () =
  List.iteri (fun i q -> checki "id order" (i + 1) q.id) (Catalog.all ())

let test_catalog_by_id () =
  for i = 1 to 17 do
    checki "by_id consistent" i (Catalog.by_id i).id
  done;
  checkb "by_id rejects" true
    (try ignore (Catalog.by_id 18); false
     with Catalog.Unknown_id { id = 18; min = 1; max = 17 } -> true);
  checkb "find is total" true (Catalog.find 18 = None);
  checkb "find hits" true
    (match Catalog.find 3 with Some q -> q.id = 3 | None -> false)

let test_catalog_thresholds_configurable () =
  let q = Catalog.q1 ~th:99 () in
  let has_th =
    List.exists
      (function
        | Filter preds ->
            List.exists (function Result_cmp { value = 99; _ } -> true | _ -> false) preds
        | _ -> false)
      (List.hd q.branches)
  in
  checkb "threshold propagates" true has_th

let test_catalog_combine_queries () =
  List.iter
    (fun id ->
      let q = Catalog.by_id id in
      checkb "has combine" true (q.combine <> None);
      checki "two branches" 2 (List.length q.branches))
    [ 6; 7; 8; 9 ]

(* ---------------- Report ---------------- *)

let test_report_dedup () =
  let r1 = Report.make ~query_id:1 ~window:0 ~keys:[| 5 |] ~value:10 () in
  let r2 = Report.make ~query_id:1 ~window:0 ~keys:[| 5 |] ~value:99 () in
  let r3 = Report.make ~query_id:1 ~window:1 ~keys:[| 5 |] ~value:10 () in
  checki "dedup by identity" 2 (List.length (Report.dedup [ r1; r2; r3 ]))

let test_report_reported_keys () =
  let r1 = Report.make ~query_id:1 ~window:0 ~keys:[| 5 |] ~value:1 () in
  let r2 = Report.make ~query_id:1 ~window:3 ~keys:[| 5 |] ~value:1 () in
  let r3 = Report.make ~query_id:1 ~window:0 ~keys:[| 6 |] ~value:1 () in
  checki "distinct key vectors" 2 (List.length (Report.reported_keys [ r1; r2; r3 ]))

(* Identity and value are attributed separately, duplicates count, and
   [missing]/[extra] keep their side's order. *)
let test_report_diff () =
  let r ?(w = 0) ?value2 k v =
    Report.make ?value2 ~query_id:1 ~window:w ~keys:[| k |] ~value:v ()
  in
  let d =
    Report.diff
      ~reference:[ r 1 10; r 2 20; r 2 20; r 3 30; r ~value2:(Some 1) 4 40; r 5 50 ]
      ~measured:[ r 6 60; r 2 20; r 3 31; r ~value2:(Some 2) 4 40; r 1 10; r ~w:1 5 50 ]
  in
  let show = List.map Report.to_string in
  Alcotest.(check (list string)) "missing" (show [ r 2 20; r 5 50 ]) (show d.missing);
  Alcotest.(check (list string)) "extra" (show [ r 6 60; r ~w:1 5 50 ]) (show d.extra);
  Alcotest.(check (list (pair string string)))
    "changed"
    [ (Report.to_string (r 3 30), Report.to_string (r 3 31));
      (Report.to_string (r ~value2:(Some 1) 4 40),
       Report.to_string (r ~value2:(Some 2) 4 40)) ]
    (List.map (fun (a, b) -> (Report.to_string a, Report.to_string b)) d.changed);
  checkb "same multiset in another order: empty" true
    (Report.diff ~reference:[ r 1 10; r 2 20 ] ~measured:[ r 2 20; r 1 10 ]
     = { Report.missing = []; extra = []; changed = [] })

(* ---------------- Ref_eval ---------------- *)

let syn ~ts ~src ~dst =
  Packet.make ~ts ~src_ip:src ~dst_ip:dst ~proto:6 ~src_port:1000 ~dst_port:80
    ~tcp_flags:Field.Tcp_flag.syn ()

let test_ref_eval_filter_drops () =
  let q =
    chain ~id:1 ~name:"t" ~description:""
      [ Filter [ field_is Field.Proto 6 ]; Map (keys [ Field.Dst_ip ]) ]
  in
  let pkts = [| Packet.make ~proto:17 () |] in
  checki "udp dropped by tcp filter" 0 (List.length (Ref_eval.evaluate q pkts))

let test_ref_eval_map_reports_keys () =
  let q = chain ~id:1 ~name:"t" ~description:"" [ Map (keys [ Field.Dst_ip ]) ] in
  let pkts = [| Packet.make ~dst_ip:42 () |] in
  match Ref_eval.evaluate q pkts with
  | [ r ] -> Alcotest.(check (array int)) "projected key" [| 42 |] r.Report.keys
  | l -> Alcotest.failf "expected one report, got %d" (List.length l)

let test_ref_eval_map_masks () =
  let q = chain ~id:1 ~name:"t" ~description:"" [ Map [ key ~mask:0xFF00 Field.Dst_port ] ] in
  let pkts = [| Packet.make ~dst_port:0x1234 () |] in
  match Ref_eval.evaluate q pkts with
  | [ r ] -> checki "masked" 0x1200 r.Report.keys.(0)
  | _ -> Alcotest.fail "expected one report"

let test_ref_eval_distinct_passes_first_only () =
  let q = chain ~id:1 ~name:"t" ~description:"" [ Distinct (keys [ Field.Dst_ip ]) ] in
  let pkts = Array.init 5 (fun i -> Packet.make ~ts:(0.001 *. float_of_int i) ~dst_ip:7 ()) in
  checki "one report for duplicates" 1 (List.length (Ref_eval.evaluate q pkts))

let test_ref_eval_reduce_threshold_crossing () =
  let q =
    chain ~id:1 ~name:"t" ~description:""
      [ Reduce { keys = keys [ Field.Dst_ip ]; agg = Count }; Filter [ result_gt 3 ] ]
  in
  let pkts = Array.init 10 (fun i -> syn ~ts:(0.001 *. float_of_int i) ~src:i ~dst:9) in
  (* count crosses 3 once; the key reports exactly once in the window *)
  checki "single crossing report" 1 (List.length (Ref_eval.evaluate q pkts))

let test_ref_eval_window_resets_state () =
  let q =
    chain ~id:1 ~name:"t" ~description:""
      [ Reduce { keys = keys [ Field.Dst_ip ]; agg = Count }; Filter [ result_gt 2 ] ]
  in
  (* 3 packets in window 0 and 2 in window 1: only window 0 crosses. *)
  let pkts =
    [| syn ~ts:0.01 ~src:1 ~dst:5; syn ~ts:0.02 ~src:2 ~dst:5; syn ~ts:0.03 ~src:3 ~dst:5;
       syn ~ts:0.11 ~src:4 ~dst:5; syn ~ts:0.12 ~src:5 ~dst:5 |]
  in
  let reports = Ref_eval.evaluate q pkts in
  checki "one report, window 0 only" 1 (List.length reports);
  checki "window index" 0 (List.hd reports).Report.window

let test_ref_eval_sum_field () =
  let q =
    chain ~id:1 ~name:"t" ~description:""
      [ Reduce { keys = keys [ Field.Dst_ip ]; agg = Sum_field Field.Payload_len };
        Filter [ result_gt 100 ] ]
  in
  let pkts = [| Packet.make ~ts:0.0 ~dst_ip:1 ~payload_len:150 () |] in
  checki "byte sum crosses" 1 (List.length (Ref_eval.evaluate q pkts))

let test_ref_eval_sub_combine () =
  let q = Catalog.q6 ~th:2 () in
  (* 4 SYNs, 1 FIN to host 9 in one window: diff = 3 > 2. *)
  let fin =
    Packet.make ~ts:0.05 ~src_ip:1 ~dst_ip:9 ~proto:6
      ~tcp_flags:(Field.Tcp_flag.fin lor Field.Tcp_flag.ack) ()
  in
  let pkts =
    Array.append (Array.init 4 (fun i -> syn ~ts:(0.01 *. float_of_int (i + 1)) ~src:i ~dst:9)) [| fin |]
  in
  let reports = Ref_eval.evaluate q pkts in
  checki "flood host reported" 1 (List.length reports);
  checki "value is diff" 3 (List.hd reports).Report.value

let test_ref_eval_sub_combine_balanced_silent () =
  let q = Catalog.q6 ~th:1 () in
  let fin ~ts ~dst =
    Packet.make ~ts ~src_ip:1 ~dst_ip:dst ~proto:6
      ~tcp_flags:(Field.Tcp_flag.fin lor Field.Tcp_flag.ack) ()
  in
  let pkts = [| syn ~ts:0.01 ~src:1 ~dst:9; fin ~ts:0.02 ~dst:9 |] in
  checki "balanced host silent" 0 (List.length (Ref_eval.evaluate q pkts))

let test_ref_eval_pair_combine_reports_both () =
  let q = Catalog.q8 ~th:0 () in
  (* one connection with payload to host 9 *)
  let pkts =
    [| syn ~ts:0.01 ~src:1 ~dst:9;
       Packet.make ~ts:0.02 ~src_ip:1 ~dst_ip:9 ~proto:6 ~src_port:1000
         ~dst_port:80 ~tcp_flags:Field.Tcp_flag.psh ~payload_len:50 () |]
  in
  match Ref_eval.evaluate q pkts with
  | [ r ] ->
      checki "conns" 1 r.Report.value;
      Alcotest.(check (option int)) "bytes exported too" (Some 50) r.Report.value2
  | l -> Alcotest.failf "expected one report, got %d" (List.length l)

let test_ref_eval_rejects_invalid () =
  let bad = make ~id:0 ~name:"bad" ~description:"" [] in
  checkb "create rejects invalid" true
    (try ignore (Ref_eval.create bad); false
     with Ast.Invalid { errors; _ } -> List.mem Ast.Empty_query errors)

let test_ref_eval_finish_idempotent () =
  let t = Ref_eval.create (Catalog.by_id 6) in
  Ref_eval.feed t (syn ~ts:0.01 ~src:1 ~dst:9);
  Ref_eval.finish t;
  Ref_eval.finish t;
  checkb "no duplicate reports from double finish" true
    (List.length (Ref_eval.reports t) <= 1)

let suite =
  [
    ("key defaults full mask", `Quick, test_key_defaults_full_mask);
    ("cmp_holds", `Quick, test_cmp_holds);
    ("catalog queries validate", `Quick, test_validate_ok);
    ("validate empty query", `Quick, test_validate_empty_query);
    ("validate empty branch", `Quick, test_validate_empty_branch);
    ("validate missing combine", `Quick, test_validate_missing_combine);
    ("validate combine single branch", `Quick, test_validate_combine_single_branch);
    ("validate result_cmp before stateful", `Quick, test_validate_result_cmp_before_stateful);
    ("validate empty keys", `Quick, test_validate_empty_keys);
    ("keys_equal", `Quick, test_keys_equal);
    ("num_primitives", `Quick, test_num_primitives);
    ("to_string plain", `Quick, test_to_string_plain);
    ("catalog ids sequential", `Quick, test_catalog_ids_sequential);
    ("catalog by_id", `Quick, test_catalog_by_id);
    ("catalog thresholds configurable", `Quick, test_catalog_thresholds_configurable);
    ("catalog combine queries", `Quick, test_catalog_combine_queries);
    ("report dedup", `Quick, test_report_dedup);
    ("report reported_keys", `Quick, test_report_reported_keys);
    ("report diff", `Quick, test_report_diff);
    ("ref_eval filter drops", `Quick, test_ref_eval_filter_drops);
    ("ref_eval map reports keys", `Quick, test_ref_eval_map_reports_keys);
    ("ref_eval map masks", `Quick, test_ref_eval_map_masks);
    ("ref_eval distinct first only", `Quick, test_ref_eval_distinct_passes_first_only);
    ("ref_eval reduce threshold crossing", `Quick, test_ref_eval_reduce_threshold_crossing);
    ("ref_eval window resets", `Quick, test_ref_eval_window_resets_state);
    ("ref_eval sum field", `Quick, test_ref_eval_sum_field);
    ("ref_eval sub combine", `Quick, test_ref_eval_sub_combine);
    ("ref_eval sub combine balanced silent", `Quick, test_ref_eval_sub_combine_balanced_silent);
    ("ref_eval pair combine reports both", `Quick, test_ref_eval_pair_combine_reports_both);
    ("ref_eval rejects invalid", `Quick, test_ref_eval_rejects_invalid);
    ("ref_eval finish idempotent", `Quick, test_ref_eval_finish_idempotent);
  ]
