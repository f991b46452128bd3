(** Tests for the Newton public facade: Device and Network APIs, plus
    end-to-end integration scenarios. *)

open Newton

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let attack_trace ?(flows = 1200) ?(seed = 51) () =
  Trace.generate ~attacks:Newton_trace.Attack.default_suite ~seed
    (Trace_profile.with_flows Trace_profile.caida_like flows)

(* ---------------- Device ---------------- *)

let test_device_add_remove () =
  let d = Device.create () in
  let h, lat = Device.add_query d (Catalog.q1 ()) in
  checkb "install within 20ms" true (lat > 0.0 && lat < 0.020);
  checki "one query" 1 (List.length (Device.queries d));
  (match Device.remove_query d h with
  | Some lat -> checkb "removal within 20ms" true (lat > 0.0 && lat < 0.020)
  | None -> Alcotest.fail "remove failed");
  checki "none left" 0 (List.length (Device.queries d));
  Alcotest.(check (option (float 1.0))) "double remove" None (Device.remove_query d h)

let test_device_update () =
  let d = Device.create () in
  let h, _ = Device.add_query d (Catalog.q1 ~th:5 ()) in
  match Device.update_query d h (Catalog.q1 ~th:500 ()) with
  | Some (_, lat) ->
      checkb "update within 40ms" true (lat < 0.040);
      checki "still one query" 1 (List.length (Device.queries d))
  | None -> Alcotest.fail "update failed"

let test_device_all_queries_within_20ms () =
  List.iter
    (fun q ->
      let d = Device.create () in
      let _, lat = Device.add_query d q in
      checkb (Printf.sprintf "Q%d installs within 20ms" q.Query.id) true (lat < 0.020))
    (Catalog.all ())

let test_device_no_forwarding_interruption () =
  let d = Device.create () in
  List.iter (fun q -> ignore (Device.add_query d q)) (Catalog.all ());
  checkb "zero outage" true
    (Newton_dataplane.Switch.outage_time (Device.switch d) = 0.0)

let test_device_detects_attacks_end_to_end () =
  let d = Device.create () in
  List.iter (fun q -> ignore (Device.add_query d q)) (Catalog.all ());
  Device.process_trace d (attack_trace ());
  let qids =
    Device.reports d |> List.map (fun r -> r.Report.query_id) |> List.sort_uniq compare
  in
  Alcotest.(check (list int)) "all nine queries fire" [ 1; 2; 3; 4; 5; 6; 7; 8; 9 ] qids

let test_device_update_changes_behavior () =
  (* Raising the threshold at runtime silences a detection. *)
  let trace = attack_trace () in
  let run th =
    let d = Device.create () in
    let _ = Device.add_query d (Catalog.q1 ~th ()) in
    Device.process_trace d trace;
    Device.message_count d
  in
  checkb "low threshold reports" true (run 20 > 0);
  checki "huge threshold silent" 0 (run 1_000_000)

(* ---------------- Network ---------------- *)

let test_network_deploy_on_fat_tree () =
  let net = Network.create (Topo.fat_tree 4) in
  let h, lat = Network.add_query net (Catalog.q1 ()) in
  checkb "latency sane" true (lat > 0.0 && lat < 0.1);
  Network.process_trace net (attack_trace ~flows:400 ());
  checkb "reports produced" true (Network.message_count net > 0);
  (match Network.remove_query net h with
  | Some _ -> ()
  | None -> Alcotest.fail "remove failed");
  checki "clean removal" 0
    (List.fold_left
       (fun acc s ->
         acc
         + List.length
             (Newton_runtime.Engine.instances
                (Newton_controller.Deploy.engine (Network.controller net) s)))
       0
       (Topo.switches (Network.topo net)))

let test_network_host_mapping_stable () =
  let topo = Topo.fat_tree 4 in
  let h1 = Topo.host_of_ip topo 0x0A000001 in
  let h2 = Topo.host_of_ip topo 0x0A000001 in
  checki "stable mapping" h1 h2;
  checkb "maps to a host" true (Topo.is_host topo h1)

let test_network_failure_resilience () =
  let net = Network.create (Topo.fat_tree 4) in
  let _ = Network.add_query net (Catalog.q1 ~th:10 ()) in
  let trace = attack_trace ~flows:400 () in
  Network.process_trace net trace;
  let before = Network.message_count net in
  checkb "detects before failure" true (before > 0);
  (* Fail a core-aggregation link and replay: still detected. *)
  Network.fail_link net (0, 4);
  let net2 = Network.create (Topo.fat_tree 4) in
  let _ = Network.add_query net2 (Catalog.q1 ~th:10 ()) in
  Network.fail_link net2 (0, 4);
  Network.process_trace net2 trace;
  checkb "detects after failure" true (Network.message_count net2 > 0)

(* ---------------- Integration scenarios ---------------- *)

(* The paper's §1 motivating workflow: a standing coarse query detects a
   DDoS; the operator drills down by installing a refined query at
   runtime, with no interruption. *)
let test_dynamic_drilldown () =
  let trace = attack_trace () in
  let d = Device.create () in
  let _ = Device.add_query d (Catalog.q5 ()) in
  Device.process_trace d trace;
  let victims =
    Device.reports d
    |> List.filter (fun r -> r.Report.query_id = 5)
    |> List.map (fun r -> r.Report.keys.(0))
    |> List.sort_uniq compare
  in
  checkb "udp ddos victim found" true (victims <> []);
  (* Drill down: watch the victim's sources with a refined query. *)
  let victim = List.hd victims in
  let refined =
    Query.chain ~id:100 ~name:"drilldown" ~description:"sources flooding the victim"
      [ Query.Filter
          [ Query.field_is Field.Proto 17; Query.field_is Field.Dst_ip victim ];
        Query.Map (Query.keys [ Field.Src_ip ]);
        Query.Reduce { keys = Query.keys [ Field.Src_ip ]; agg = Query.Count };
        Query.Filter [ Query.result_gt 3 ];
        Query.Map (Query.keys [ Field.Src_ip ]) ]
  in
  let _, lat = Device.add_query d refined in
  checkb "drilldown installs in ms" true (lat < 0.020);
  Device.process_trace d trace;
  let attackers =
    Device.reports d
    |> List.filter (fun r -> r.Report.query_id = 100)
    |> List.map (fun r -> r.Report.keys.(0))
    |> List.sort_uniq compare
  in
  checkb "attack sources identified" true (List.length attackers >= 10);
  checkb "forwarding never interrupted" true
    (Newton_dataplane.Switch.outage_time (Device.switch d) = 0.0)

let test_both_trace_profiles () =
  List.iter
    (fun profile ->
      let trace =
        Trace.generate ~attacks:Newton_trace.Attack.default_suite ~seed:77
          (Trace_profile.with_flows profile 1000)
      in
      let d = Device.create () in
      List.iter (fun q -> ignore (Device.add_query d q)) (Catalog.all ());
      Device.process_trace d trace;
      (* Monitoring overhead stays an order below generic exporters. *)
      let ratio =
        float_of_int (Device.message_count d) /. float_of_int (Trace.length trace)
      in
      checkb (Trace_profile.to_string profile ^ ": overhead < 5%") true (ratio < 0.05))
    [ Trace_profile.caida_like; Trace_profile.mawi_like ]

let test_newton_vs_sonata_agree () =
  (* Same queries, same trace: Newton's rule-built pipeline and the
     Sonata engine produce identical report sets (they share data-plane
     semantics; only reconfiguration differs). *)
  let trace = attack_trace ~flows:800 () in
  let d = Device.create () in
  let _ = Device.add_query d (Catalog.q4 ()) in
  Device.process_trace d trace;
  let s = Newton_baselines.Sonata.create () in
  let _ =
    Newton_baselines.Sonata.install_query s
      (Newton_compiler.Compose.compile (Catalog.q4 ()))
  in
  Trace.iter (Newton_baselines.Sonata.process_packet s) trace;
  let keyset rs =
    List.map (fun r -> (r.Report.window, r.Report.keys)) rs |> List.sort_uniq compare
  in
  Alcotest.(check (list (pair int (array int))))
    "identical detections"
    (keyset (Device.reports d))
    (keyset (Newton_baselines.Sonata.reports s))

let test_network_facade_extensions () =
  let net = Network.create (Topo.linear 3) in
  Network.set_enabled net 1 false;
  let plan =
    Newton_controller.Scheduler.plan ~register_pool:30_000
      [ Newton_controller.Scheduler.demand (Catalog.q1 ()) ]
  in
  let uids = Network.deploy_plan net plan in
  checki "plan deployed through the facade" 1 (List.length uids);
  checki "legacy switch untouched" 0
    (List.length
       (Newton_runtime.Engine.instances
          (Newton_controller.Deploy.engine (Network.controller net) 1)));
  checki "no deferrals yet" 0 (Network.software_deferrals net)

let suite =
  [
    ("device add/remove", `Quick, test_device_add_remove);
    ("device update", `Quick, test_device_update);
    ("device all queries within 20ms", `Quick, test_device_all_queries_within_20ms);
    ("device no forwarding interruption", `Quick, test_device_no_forwarding_interruption);
    ("device detects attacks end to end", `Slow, test_device_detects_attacks_end_to_end);
    ("device update changes behavior", `Quick, test_device_update_changes_behavior);
    ("network deploy on fat tree", `Quick, test_network_deploy_on_fat_tree);
    ("network host mapping stable", `Quick, test_network_host_mapping_stable);
    ("network failure resilience", `Quick, test_network_failure_resilience);
    ("dynamic drilldown scenario", `Slow, test_dynamic_drilldown);
    ("both trace profiles", `Slow, test_both_trace_profiles);
    ("newton vs sonata agree", `Quick, test_newton_vs_sonata_agree);
    ("network facade extensions", `Quick, test_network_facade_extensions);
  ]
