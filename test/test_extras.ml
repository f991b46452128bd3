(** Tests for the extension queries (Q10–Q17, beyond the paper's
    Table 2): the byte/maximum aggregations, and the IPv6/ICMPv6/tunnel
    detection scenarios with their ground-truth injectors. *)

open Newton_query
open Newton

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let test_extras_valid_and_compile () =
  List.iter
    (fun q ->
      checkb (q.Ast.name ^ " valid") true (Ast.is_valid q);
      let c = Newton_compiler.Compose.compile q in
      checkb (q.Ast.name ^ " fits pipeline") true
        (c.Newton_compiler.Compose.stats.Newton_compiler.Compose.stages <= 12))
    (Catalog.extras ())

let test_q10_heavy_hitter_bytes () =
  let victim = Newton_trace.Attack.host_of 5 in
  let trace =
    Newton_trace.Gen.generate
      ~attacks:
        [ Newton_trace.Attack.Udp_ddos { victim; attackers = 80; pkts_per_attacker = 15 } ]
      ~seed:9
      (Newton_trace.Profile.with_flows Newton_trace.Profile.caida_like 500)
  in
  (* ~120 x 512-byte flood packets per window = ~60 KB, far above
     ordinary per-host volume at this trace size. *)
  let d = Device.create () in
  let _ = Device.add_query d (Catalog.q10 ~th:30_000 ()) in
  Device.process_trace d trace;
  let victims =
    Device.reports d |> List.map (fun r -> r.Report.keys.(0)) |> List.sort_uniq compare
  in
  checkb "flood victim is a byte heavy hitter" true (List.mem victim victims)

let test_q10_matches_reference () =
  let trace =
    Newton_trace.Gen.generate ~attacks:Newton_trace.Attack.default_suite ~seed:10
      (Newton_trace.Profile.with_flows Newton_trace.Profile.caida_like 800)
  in
  let q = Catalog.q10 ~th:50_000 () in
  let truth = Ref_eval.evaluate q (Newton_trace.Gen.packets trace) in
  let d = Device.create () in
  let _ = Device.add_query d q in
  Device.process_trace d trace;
  let a = Analyzer.score ~truth ~detected:(Device.reports d) in
  checkb "recall 1.0 (sums never underestimate)" true (a.Newton_runtime.Analyzer.recall >= 0.999)

let test_q11_max_aggregation () =
  let d = Device.create () in
  let _ = Device.add_query d (Catalog.by_id 11) in
  (* One jumbo sender among small-packet hosts. *)
  for i = 1 to 5 do
    Device.process_packet d
      (Packet.make ~ts:0.01 ~src_ip:100 ~dst_ip:1 ~proto:6 ~src_port:i
         ~dst_port:80 ~pkt_len:200 ())
  done;
  Device.process_packet d
    (Packet.make ~ts:0.02 ~src_ip:200 ~dst_ip:1 ~proto:6 ~src_port:9
       ~dst_port:80 ~pkt_len:1500 ());
  (match Device.reports d with
  | [ r ] ->
      checki "jumbo sender reported" 200 r.Report.keys.(0);
      checki "value is the maximum" 1500 r.Report.value
  | l -> Alcotest.failf "expected 1 report, got %d" (List.length l));
  (* Repeated jumbo packets from the same host report once per window. *)
  Device.process_packet d
    (Packet.make ~ts:0.03 ~src_ip:200 ~dst_ip:1 ~proto:6 ~src_port:9
       ~dst_port:80 ~pkt_len:1500 ());
  checki "deduped within the window" 1 (Device.message_count d)

let test_q11_max_reference_equivalence () =
  let trace =
    Newton_trace.Gen.generate ~seed:12
      (Newton_trace.Profile.with_flows Newton_trace.Profile.caida_like 600)
  in
  let q = Catalog.by_id 11 in
  let truth = Ref_eval.evaluate q (Newton_trace.Gen.packets trace) in
  let d = Device.create () in
  let _ = Device.add_query d q in
  Device.process_trace d trace;
  let a = Analyzer.score ~truth ~detected:(Device.reports d) in
  checkb "max sketch never misses" true (a.Newton_runtime.Analyzer.recall >= 0.999)

let test_q12_amplification_pair () =
  let d = Device.create () in
  let _ = Device.add_query d (Catalog.q12 ~th:1000 ()) in
  let victim = 777 in
  (* Tiny query out, large responses in: the Pair exports both byte
     counts; the analyzer sees responses >> queries. *)
  Device.process_packet d
    (Packet.make ~ts:0.01 ~src_ip:victim ~dst_ip:53053 ~proto:17 ~src_port:4444
       ~dst_port:53 ~pkt_len:64 ());
  for i = 1 to 3 do
    Device.process_packet d
      (Packet.make ~ts:(0.01 +. (0.001 *. float_of_int i)) ~src_ip:53053
         ~dst_ip:victim ~proto:17 ~src_port:53 ~dst_port:4444 ~pkt_len:1400 ())
  done;
  match Device.reports d with
  | r :: _ ->
      checki "victim reported" victim r.Report.keys.(0);
      checkb "response volume crossed" true (r.Report.value > 1000);
      checkb "query volume exported too" true (r.Report.value2 <> None)
  | [] -> Alcotest.fail "expected an amplification report"

let test_q13_icmp_flood () =
  let victim = Newton_trace.Attack.host_of 9 in
  let trace =
    Newton_trace.Gen.generate
      ~attacks:
        [ Newton_trace.Attack.Icmp_flood { victim; attackers = 60; pkts_per_attacker = 15 } ]
      ~seed:14
      (Newton_trace.Profile.with_flows Newton_trace.Profile.caida_like 400)
  in
  let d = Device.create () in
  let _ = Device.add_query d (Catalog.by_id 13) in
  Device.process_trace d trace;
  let victims =
    Device.reports d |> List.map (fun r -> r.Report.keys.(0)) |> List.sort_uniq compare
  in
  Alcotest.(check (list int)) "only the flood victim" [ victim ] victims

let test_q14_reflection () =
  let victim = Newton_trace.Attack.host_of 10 in
  let trace =
    Newton_trace.Gen.generate
      ~attacks:
        [ Newton_trace.Attack.Reflection { victim; reflectors = 50; pkts_each = 10 } ]
      ~seed:15
      (Newton_trace.Profile.with_flows Newton_trace.Profile.caida_like 400)
  in
  let q = Catalog.by_id 14 in
  (* ground truth agrees with the data plane *)
  let truth = Ref_eval.evaluate q (Newton_trace.Gen.packets trace) in
  checkb "reference finds the reflection victim" true
    (List.exists (fun (r : Report.t) -> r.Report.keys.(0) = victim) truth);
  let d = Device.create () in
  let _ = Device.add_query d q in
  Device.process_trace d trace;
  let a = Analyzer.score ~truth ~detected:(Device.reports d) in
  checkb "data plane recall 1.0" true (a.Newton_runtime.Analyzer.recall >= 0.999);
  (* Ordinary clients making their own connections are not reported:
     their outbound SYNs cancel the SYN-ACKs they legitimately receive. *)
  checkb "benign hosts mostly silent" true (a.Newton_runtime.Analyzer.precision >= 0.5)

(* Shared scaffolding for the Q15-Q17 detection-accuracy tests: run one
   injector over background traffic, evaluate the query on both the
   reference evaluator and the data plane, and require every
   ground-truth culprit detected (zero false negatives). *)
let detection_accuracy ~what ~seed ~attack ~culprit q =
  let trace =
    Newton_trace.Gen.generate ~attacks:[ attack ] ~seed
      (Newton_trace.Profile.with_flows Newton_trace.Profile.caida_like 400)
  in
  let truth = Ref_eval.evaluate q (Newton_trace.Gen.packets trace) in
  checkb (what ^ ": reference finds the culprit") true
    (List.exists (fun (r : Report.t) -> r.Report.keys.(0) = culprit) truth);
  let d = Device.create () in
  let _ = Device.add_query d q in
  Device.process_trace d trace;
  let detected = Device.reports d in
  checkb (what ^ ": data plane reports the culprit") true
    (List.exists (fun (r : Report.t) -> r.Report.keys.(0) = culprit) detected);
  let a = Analyzer.score ~truth ~detected in
  checkb (what ^ ": zero false negatives") true
    (a.Newton_runtime.Analyzer.recall >= 0.999)

let test_q15_ntp_amplification () =
  let victim = Newton_trace.Attack.host_of 9 in
  detection_accuracy ~what:"ntp" ~seed:16
    ~attack:
      (Newton_trace.Attack.Amplification
         { victim; reflectors = 50; pkts_each = 10; port = 123 })
    ~culprit:victim
    (Catalog.by_id 15)

let test_q15_ssdp_amplification () =
  let victim = Newton_trace.Attack.host_of 10 in
  detection_accuracy ~what:"ssdp" ~seed:17
    ~attack:
      (Newton_trace.Attack.Amplification
         { victim; reflectors = 50; pkts_each = 10; port = 1900 })
    ~culprit:victim
    (Catalog.q15 ~port:1900 ())

let test_q16_icmp6_scan () =
  let scanner = Newton_trace.Attack.host_of 11 in
  detection_accuracy ~what:"icmp6 scan" ~seed:18
    ~attack:(Newton_trace.Attack.Icmp6_scan { scanner; fanout = 900 })
    ~culprit:scanner
    (Catalog.by_id 16);
  (* Background traffic has no ICMPv6, so nothing else can be named:
     the scanner is the only host ever reported. *)
  let trace =
    Newton_trace.Gen.generate
      ~attacks:[ Newton_trace.Attack.Icmp6_scan { scanner; fanout = 900 } ]
      ~seed:18
      (Newton_trace.Profile.with_flows Newton_trace.Profile.caida_like 400)
  in
  let d = Device.create () in
  let _ = Device.add_query d (Catalog.by_id 16) in
  Device.process_trace d trace;
  let hosts =
    Device.reports d |> List.map (fun r -> r.Report.keys.(0))
    |> List.sort_uniq compare
  in
  Alcotest.(check (list int)) "only the scanner" [ scanner ] hosts

let test_q17_tunnel_exfiltration () =
  let src = Newton_trace.Attack.host_of 12 in
  detection_accuracy ~what:"tunnel exfil" ~seed:19
    ~attack:
      (Newton_trace.Attack.Tunnel_exfil
         { src; dst = Newton_trace.Attack.host_of 13; tun_id = 0xBEEF; pkts = 400 })
    ~culprit:src
    (Catalog.by_id 17)

(* The detection survives the wire: export the trace to pcap, re-ingest
   it through the decoder (VXLAN decap included), and the tunneled
   source is still the one reported — proof the inner 5-tuple is what
   the intent monitors. *)
let test_q17_detects_after_pcap_roundtrip () =
  let src = Newton_trace.Attack.host_of 12 in
  let trace =
    Newton_trace.Gen.generate
      ~attacks:
        [
          Newton_trace.Attack.Tunnel_exfil
            { src; dst = Newton_trace.Attack.host_of 13; tun_id = 0xBEEF; pkts = 400 };
        ]
      ~seed:20
      (Newton_trace.Profile.with_flows Newton_trace.Profile.caida_like 200)
  in
  let path =
    Filename.concat (Filename.get_temp_dir_name ()) "newton_q17.pcap"
  in
  Newton_ingest.Capture.export trace path;
  let loaded = Newton_ingest.Capture.load path in
  let d = Device.create () in
  let _ = Device.add_query d (Catalog.by_id 17) in
  Device.process_trace d loaded;
  let hosts =
    Device.reports d |> List.map (fun r -> r.Report.keys.(0))
    |> List.sort_uniq compare
  in
  Alcotest.(check (list int)) "tunneled source survives re-ingest" [ src ] hosts;
  Sys.remove path

(* Every extension query is admissible: `newton check` finds nothing to
   complain about (the Q16 ICMP filter pins the protocol, so NA015
   stays quiet). *)
let test_extras_check_clean () =
  List.iter
    (fun q ->
      checki (q.Ast.name ^ " checks clean") 0
        (List.length
           (List.filter
              (fun d ->
                d.Newton_analysis.Diag.severity <> Newton_analysis.Diag.Info)
              (Newton_analysis.Check.check_query q))))
    (Catalog.extras ())

let test_extras_dynamic_install () =
  (* Extension queries install at runtime like any other. *)
  let d = Device.create () in
  List.iter
    (fun q ->
      let _, lat = Device.add_query d q in
      checkb (q.Ast.name ^ " installs in ms") true (lat < 0.02))
    (Catalog.extras ());
  checki "all extras live" 8 (List.length (Device.queries d))

let suite =
  [
    ("extras valid and compile", `Quick, test_extras_valid_and_compile);
    ("q10 heavy hitter bytes", `Quick, test_q10_heavy_hitter_bytes);
    ("q10 matches reference", `Quick, test_q10_matches_reference);
    ("q11 max aggregation", `Quick, test_q11_max_aggregation);
    ("q11 max reference equivalence", `Quick, test_q11_max_reference_equivalence);
    ("q12 amplification pair", `Quick, test_q12_amplification_pair);
    ("q13 icmp flood", `Quick, test_q13_icmp_flood);
    ("q14 reflection", `Quick, test_q14_reflection);
    ("q15 ntp amplification", `Quick, test_q15_ntp_amplification);
    ("q15 ssdp amplification", `Quick, test_q15_ssdp_amplification);
    ("q16 icmp6 scan", `Quick, test_q16_icmp6_scan);
    ("q17 tunnel exfiltration", `Quick, test_q17_tunnel_exfiltration);
    ("q17 detects after pcap roundtrip", `Quick,
     test_q17_detects_after_pcap_roundtrip);
    ("extras check clean", `Quick, test_extras_check_clean);
    ("extras dynamic install", `Quick, test_extras_dynamic_install);
  ]
