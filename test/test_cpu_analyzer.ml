(** Tests for the GPV CPU analyzer: *Flow answers the same intents as
    Newton, at the cost of shipping and touching every packet. *)

open Newton_query
open Newton_baselines

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let trace () =
  Newton_trace.Gen.generate ~attacks:Newton_trace.Attack.default_suite ~seed:17
    (Newton_trace.Profile.with_flows Newton_trace.Profile.caida_like 800)

let test_gpv_reconstruction_lossless_for_tcp_fields () =
  let tr = trace () in
  let queries = [ Catalog.q1 (); Catalog.q4 () ] in
  let analyzer, _ = Cpu_analyzer.of_trace queries tr in
  (* Same ground truth as evaluating the raw trace: GPV features carry
     everything those queries read. *)
  let direct =
    List.concat_map (fun q -> Ref_eval.evaluate q (Newton_trace.Gen.packets tr)) queries
  in
  let via_gpv = Cpu_analyzer.results analyzer in
  let keyset rs =
    List.map (fun r -> (r.Report.query_id, r.Report.window, r.Report.keys)) rs
    |> List.sort_uniq compare
  in
  Alcotest.(check (list (triple int int (array int))))
    "GPV path = direct evaluation" (keyset direct) (keyset via_gpv)

let test_cpu_touches_every_packet () =
  let tr = trace () in
  let analyzer, sf = Cpu_analyzer.of_trace [ Catalog.q1 () ] tr in
  checki "every packet reaches the CPU" (Newton_trace.Gen.length tr)
    (Cpu_analyzer.cpu_packets analyzer);
  checki "gpvs = exporter messages" (Starflow.messages sf) (Cpu_analyzer.gpvs analyzer)

let test_overhead_contrast_with_newton () =
  let tr = trace () in
  let analyzer, sf = Cpu_analyzer.of_trace [ Catalog.q1 () ] tr in
  ignore analyzer;
  let device = Newton.Device.create () in
  let _ = Newton.Device.add_query device (Catalog.q1 ()) in
  Newton.Device.process_trace device tr;
  let newton_msgs = Newton.Device.message_count device in
  checkb "Newton exports orders of magnitude less" true
    (Starflow.messages sf > 50 * max 1 newton_msgs)

let test_same_detections_as_newton () =
  let tr = trace () in
  let q = Catalog.q4 () in
  let analyzer, _ = Cpu_analyzer.of_trace [ q ] tr in
  let device = Newton.Device.create () in
  let _ = Newton.Device.add_query device q in
  Newton.Device.process_trace device tr;
  let keys rs =
    List.map (fun r -> r.Report.keys) rs |> List.sort_uniq compare
  in
  let cpu_keys = keys (Cpu_analyzer.results analyzer) in
  let newton_keys = keys (Newton.Device.reports device) in
  (* The CPU path is exact; Newton's sketches can add false positives
     but never miss, so CPU detections are a subset. *)
  checkb "every exact detection also found by Newton" true
    (List.for_all (fun k -> List.mem k newton_keys) cpu_keys);
  checkb "scanner found by both" true
    (List.exists (fun k -> k.(0) = Newton_trace.Attack.host_of 2) cpu_keys)

let suite =
  [
    ("gpv reconstruction lossless", `Quick, test_gpv_reconstruction_lossless_for_tcp_fields);
    ("cpu touches every packet", `Quick, test_cpu_touches_every_packet);
    ("overhead contrast with newton", `Quick, test_overhead_contrast_with_newton);
    ("same detections as newton", `Quick, test_same_detections_as_newton);
  ]
