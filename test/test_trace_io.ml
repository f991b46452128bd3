(** Tests for saving a trace and loading it back: the pcap round trip
    through [Capture.export] and [Capture.load] that every saved-trace
    option of the CLI uses. *)

open Newton_packet
open Newton_trace
module Capture = Newton_ingest.Capture

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) ("newton_" ^ name)

let intents () = Newton_query.Catalog.all () @ Newton_query.Catalog.extras ()

(* pcap stores integer nanoseconds, so a timestamp may move by up to
   half a nanosecond, but no packet may change its window in any
   intent, and every field comes back as written. *)
let test_roundtrip () =
  let trace =
    Gen.generate ~attacks:Attack.default_suite ~seed:4
      (Profile.with_flows Profile.caida_like 300)
  in
  let path = tmp "roundtrip.pcap" in
  Capture.export trace path;
  let loaded = Capture.load path in
  Sys.remove path;
  checki "packet count" (Gen.length trace) (Gen.length loaded);
  let windows =
    List.sort_uniq compare
      (List.map (fun q -> q.Newton_query.Ast.window) (intents ()))
  in
  Array.iteri
    (fun i p ->
      let q = (Gen.packets loaded).(i) in
      let ts_p = Packet.ts p and ts_q = Packet.ts q in
      if Float.abs (ts_p -. ts_q) > 0.5e-9 then
        Alcotest.failf "packet %d: timestamp %.12f became %.12f" i ts_p ts_q;
      List.iter
        (fun w ->
          if int_of_float (ts_p /. w) <> int_of_float (ts_q /. w) then
            Alcotest.failf "packet %d changed its %g-s window" i w)
        windows;
      List.iter
        (fun f ->
          if Packet.get p f <> Packet.get q f then
            Alcotest.failf "packet %d: %s %d became %d" i (Field.to_string f)
              (Packet.get p f) (Packet.get q f))
        Field.all)
    (Gen.packets trace)

let test_loaded_trace_replays_identically () =
  let trace =
    Gen.generate ~attacks:Attack.default_suite ~seed:6
      (Profile.with_flows Profile.caida_like 400)
  in
  let path = tmp "replay.pcap" in
  Capture.export trace path;
  let loaded = Capture.load path in
  Sys.remove path;
  let queries = intents () in
  checki "17 intents" 17 (List.length queries);
  let run t =
    let d = Newton.Device.create () in
    List.iter (fun q -> ignore (Newton.Device.add_query d q)) queries;
    Newton.Device.process_trace d t;
    Newton.Device.reports d
    |> List.map Newton_query.Report.to_string
    |> List.sort compare
  in
  let expected = run trace in
  checkb "the intents report" true (expected <> []);
  Alcotest.(check (list string)) "identical detections on replay" expected
    (run loaded)

let suite =
  [
    Alcotest.test_case "roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "loaded trace replays identically" `Quick
      test_loaded_trace_replays_identically;
  ]
