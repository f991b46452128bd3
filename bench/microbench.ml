(** Micro-benchmarks (Bechamel): per-packet processing cost of the query
    engine, query compilation latency, and hash throughput.  These are
    not paper figures; they document the simulator's own performance so
    experiment runtimes are predictable. *)

open Bechamel
open Toolkit

let make_tests () =
  let trace = Common.caida_trace ~flows:300 () in
  let packets = Newton_trace.Gen.packets trace in
  let npkts = Array.length packets in
  let device_q1 = Newton.Device.create () in
  ignore (Newton.Device.add_query device_q1 (Newton_query.Catalog.q1 ()));
  let device_all = Newton.Device.create () in
  List.iter
    (fun q -> ignore (Newton.Device.add_query device_all q))
    (Newton_query.Catalog.all ());
  let i = ref 0 in
  let j = ref 0 in
  [
    Test.make ~name:"engine/packet-q1"
      (Staged.stage (fun () ->
           Newton.Device.process_packet device_q1 packets.(!i);
           i := (!i + 1) mod npkts));
    Test.make ~name:"engine/packet-9-queries"
      (Staged.stage (fun () ->
           Newton.Device.process_packet device_all packets.(!j);
           j := (!j + 1) mod npkts));
    Test.make ~name:"compiler/compile-q7"
      (Staged.stage (fun () ->
           ignore (Newton_compiler.Compose.compile (Newton_query.Catalog.q7 ()))));
    Test.make ~name:"sketch/hash-vector"
      (Staged.stage (fun () ->
           ignore (Newton_sketch.Hash.hash_vector ~seed:3 [| 0xC0A80001; 443; 6 |])));
    (let cm = Newton_sketch.Count_min.create ~width:4096 ~depth:3 ~seed:5 in
     let k = ref 0 in
     Test.make ~name:"sketch/count-min-add"
       (Staged.stage (fun () ->
            k := (!k + 1) land 0xFFFF;
            ignore (Newton_sketch.Count_min.add cm [| !k |] 1))));
    (let tbl = Newton_dataplane.Table.create ~name:"bench" ~key_width:2 () in
     let _ = List.init 64 (fun i ->
         Newton_dataplane.Table.add tbl ~priority:i
           ~matches:[| Newton_dataplane.Table.Exact i; Newton_dataplane.Table.Any |] i) in
     let k = ref 0 in
     Test.make ~name:"dataplane/table-lookup-64-rules"
       (Staged.stage (fun () ->
            k := (!k + 1) land 63;
            ignore (Newton_dataplane.Table.lookup tbl [| !k; 0 |]))));
    (let sp = Newton_packet.Sp_header.make ~hash1:1 ~state1:2 ~hash2:3 ~state2:4 ~global:5 in
     Test.make ~name:"packet/sp-codec-roundtrip"
       (Staged.stage (fun () ->
            ignore (Newton_packet.Sp_header.decode (Newton_packet.Sp_header.encode sp)))));
    Test.make ~name:"query/parse-dsl"
      (Staged.stage (fun () ->
           ignore
             (Newton_query.Parser.parse
                "filter(proto == tcp) | map(sip, dport) | distinct(sip, dport) | map(sip) | reduce(sip, count) | filter(count > 40) | map(sip)")));
  ]

let run () =
  Common.banner "Microbenchmarks (simulator performance, ns/op)";
  let tests = make_tests () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:(Some 100) ()
  in
  let t = Common.T.create ~aligns:[ Common.T.Left; Common.T.Right ] [ "benchmark"; "ns/op" ] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances (Test.make_grouped ~name:"g" [ test ]) in
      let analyzed = Analyze.all ols (Instance.monotonic_clock) results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] -> Common.T.add_row t [ name; Printf.sprintf "%.1f" est ]
          | _ -> Common.T.add_row t [ name; "n/a" ])
        analyzed)
    tests;
  Common.T.print t
