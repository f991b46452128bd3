(** Cross-component integration scenarios. *)

open Newton

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let attack_trace ?(flows = 800) ?(seed = 61) () =
  Trace.generate ~attacks:Newton_trace.Attack.default_suite ~seed
    (Trace_profile.with_flows Trace_profile.caida_like flows)

(* 1. ISP-wide deployment surviving a backbone failure. *)
let test_isp_wide_monitoring_with_failure () =
  let topo = Topo.isp () in
  let net = Network.create topo in
  let _ = Network.add_query net (Catalog.q1 ~th:20 ()) in
  let _ = Network.add_query net (Catalog.q4 ~th:40 ()) in
  let trace = attack_trace () in
  Network.process_trace net trace;
  let before = Network.message_count net in
  checkb "both queries report across the backbone" true (before > 0);
  (* Fail the SF-LA link; California traffic reroutes via Seattle/SLC. *)
  Network.fail_link net (0, 1);
  Network.process_trace net trace;
  checkb "monitoring continues after the backbone failure" true
    (Network.message_count net > before)

(* 2. A single-switch network deployment equals the device engine. *)
let test_network_single_switch_equals_device () =
  let trace = attack_trace ~flows:500 () in
  let q = Catalog.q1 ~th:20 () in
  let device = Device.create () in
  let _ = Device.add_query device q in
  Device.process_trace device trace;
  let topo = Topo.linear 1 in
  let ctl = Newton_controller.Deploy.create topo in
  let _ = Newton_controller.Deploy.deploy ctl (Compiler.compile q) in
  let src = Topo.num_switches topo in
  Trace.iter
    (fun p -> Newton_controller.Deploy.process_packet ctl ~src_host:src ~dst_host:(src + 1) p)
    trace;
  let keyset rs =
    List.map (fun (r : Report.t) -> (r.Report.window, r.Report.keys)) rs
    |> List.sort_uniq compare
  in
  Alcotest.(check (list (pair int (array int))))
    "identical report identity sets"
    (keyset (Device.reports device))
    (keyset (Newton_controller.Deploy.all_reports ctl))

(* 3. Window length controls report granularity. *)
let test_window_length_scales_reports () =
  let trace = attack_trace ~flows:400 () in
  let run window =
    let q =
      Query.make ~window ~id:1 ~name:"w" ~description:""
        (Catalog.q1 ~th:10 ()).Query.branches
    in
    let d = Device.create () in
    let _ = Device.add_query d q in
    Device.process_trace d trace;
    Device.message_count d
  in
  let fine = run 0.05 and coarse = run 0.5 in
  (* The flood is continuous: one report per window per victim, so more
     windows means proportionally more reports. *)
  checkb "finer windows report more often" true (fine > 3 * coarse)

(* 4. Queries with different windows coexist on one device. *)
let test_mixed_windows_coexist () =
  let trace = attack_trace ~flows:400 () in
  let q_fast =
    Query.make ~window:0.05 ~id:21 ~name:"fast" ~description:""
      (Catalog.q1 ~th:10 ()).Query.branches
  in
  let q_slow =
    Query.make ~window:0.5 ~id:22 ~name:"slow" ~description:""
      (Catalog.q1 ~th:10 ()).Query.branches
  in
  let d = Device.create () in
  let _ = Device.add_query d q_fast in
  let _ = Device.add_query d q_slow in
  Device.process_trace d trace;
  let count id =
    List.length
      (List.filter (fun (r : Report.t) -> r.Report.query_id = id) (Device.reports d))
  in
  checkb "fast query reports in its own windows" true (count 21 > 3 * count 22);
  checkb "slow query still reports" true (count 22 > 0)

(* 5. Scheduler-planned deployment end to end. *)
let test_scheduler_plan_end_to_end () =
  let demands =
    [ Newton_controller.Scheduler.demand ~weight:4.0 (Catalog.q1 ());
      Newton_controller.Scheduler.demand (Catalog.q4 ());
      Newton_controller.Scheduler.demand (Catalog.q5 ()) ]
  in
  let plan = Newton_controller.Scheduler.plan ~register_pool:60_000 demands in
  checki "all admitted" 3 (List.length plan.Newton_controller.Scheduler.admitted);
  let d = Device.create () in
  List.iter
    (fun (a : Newton_controller.Scheduler.assignment) ->
      let options =
        { Newton_compiler.Decompose.default_options with
          registers = a.Newton_controller.Scheduler.registers }
      in
      ignore (Device.add_query ~options d a.Newton_controller.Scheduler.a_query))
    plan.Newton_controller.Scheduler.admitted;
  Device.process_trace d (attack_trace ());
  let qids =
    Device.reports d
    |> List.map (fun r -> r.Report.query_id)
    |> List.sort_uniq compare
  in
  Alcotest.(check (list int)) "all planned queries fire" [ 1; 4; 5 ] qids

(* 6. DSL intent deployed network-wide. *)
let test_dsl_to_network () =
  let q =
    Newton_query.Parser.parse ~id:30
      "filter(proto == tcp && tcp.flags == syn) | map(dip) | reduce(dip, \
       count) | filter(count > 20) | map(dip)"
  in
  let net = Network.create (Topo.fat_tree 4) in
  let _ = Network.add_query net q in
  Network.process_trace net (attack_trace ~flows:400 ());
  checkb "parsed intent detects network-wide" true (Network.message_count net > 0)

(* 7. Threshold update under traffic takes effect immediately. *)
let test_update_under_traffic () =
  let trace = attack_trace ~flows:400 () in
  let packets = Trace.packets trace in
  let half = Array.length packets / 2 in
  let d = Device.create () in
  let h = ref (fst (Device.add_query d (Catalog.q1 ~th:10 ()))) in
  Array.iteri
    (fun i p ->
      if i = half then
        (match Device.update_query d !h (Catalog.q1 ~th:1_000_000 ()) with
        | Some (h', _) -> h := h'
        | None -> Alcotest.fail "update failed");
      Device.process_packet d p)
    packets;
  let last_report_window =
    List.fold_left (fun acc (r : Report.t) -> max acc r.Report.window) 0 (Device.reports d)
  in
  let update_window =
    int_of_float (Newton_packet.Packet.ts packets.(half) /. 0.1)
  in
  checkb "reports stop after the threshold update" true
    (last_report_window <= update_window);
  checkb "it did report before" true (Device.message_count d > 0)

(* 8. Trace replay: a trace saved as pcap produces identical
   detections when loaded back. *)
let test_saved_trace_cross_deployment () =
  let trace = attack_trace ~flows:300 ~seed:77 () in
  let path = Filename.temp_file "newton_integration" ".pcap" in
  Ingest.Capture.export trace path;
  let loaded = Ingest.Capture.load path in
  Sys.remove path;
  let q = Catalog.q4 () in
  let run t =
    let d = Device.create () in
    let _ = Device.add_query d q in
    Device.process_trace d t;
    Device.reports d |> List.map Report.to_string |> List.sort compare
  in
  Alcotest.(check (list string)) "identical detections" (run trace) (run loaded)

let suite =
  [
    ("isp-wide monitoring with failure", `Slow, test_isp_wide_monitoring_with_failure);
    ("network single switch equals device", `Quick, test_network_single_switch_equals_device);
    ("window length scales reports", `Quick, test_window_length_scales_reports);
    ("mixed windows coexist", `Quick, test_mixed_windows_coexist);
    ("scheduler plan end to end", `Quick, test_scheduler_plan_end_to_end);
    ("dsl to network", `Quick, test_dsl_to_network);
    ("update under traffic", `Quick, test_update_under_traffic);
    ("saved trace cross deployment", `Quick, test_saved_trace_cross_deployment);
  ]
