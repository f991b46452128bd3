(** Tests for trace serialization (save / load round-trips). *)

open Newton_packet
open Newton_trace

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) ("newton_" ^ name)

let test_roundtrip () =
  let trace =
    Gen.generate ~attacks:Attack.default_suite ~seed:4
      (Profile.with_flows Profile.caida_like 300)
  in
  let path = tmp "roundtrip.ntrc" in
  Trace_io.save trace path;
  let loaded = Trace_io.load path in
  checki "packet count" (Gen.length trace) (Gen.length loaded);
  Array.iteri
    (fun i p ->
      let q = (Gen.packets loaded).(i) in
      checkb "timestamp preserved" true (Packet.ts p = Packet.ts q);
      List.iter
        (fun f ->
          checki (Field.to_string f) (Packet.get p f) (Packet.get q f))
        Field.all)
    (Gen.packets trace);
  Sys.remove path

let test_loaded_trace_replays_identically () =
  let trace =
    Gen.generate ~attacks:Attack.default_suite ~seed:6
      (Profile.with_flows Profile.caida_like 400)
  in
  let path = tmp "replay.ntrc" in
  Trace_io.save trace path;
  let loaded = Trace_io.load path in
  let run t =
    let d = Newton.Device.create () in
    List.iter
      (fun q -> ignore (Newton.Device.add_query d q))
      (Newton_query.Catalog.all ());
    Newton.Device.process_trace d t;
    Newton.Device.reports d
    |> List.map Newton_query.Report.to_string
    |> List.sort compare
  in
  Alcotest.(check (list string)) "identical detections on replay" (run trace) (run loaded);
  Sys.remove path

(* Version-1 files (14-field records, before the IPv6/ICMP/tunnel
   fields existed) still load: the first 14 fields carry over in order,
   the new fields default to zero, and Ip_ver defaults to 4. *)
let test_loads_v1_files () =
  let v1_fields = List.filteri (fun i _ -> i < 14) Field.all in
  checki "v1 prefix ends at Ingress_port" (Field.index Field.Ingress_port)
    (List.length v1_fields - 1);
  let p =
    Packet.make ~ts:1.5 ~src_ip:0xC0A80101 ~dst_ip:0x0A000002
      ~proto:Field.Protocol.tcp ~src_port:443 ~dst_port:51000
      ~tcp_flags:Field.Tcp_flag.syn ~pkt_len:60 ~ingress_port:7 ()
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf "NTRC";
  Buffer.add_uint8 buf 1;
  Buffer.add_uint16_le buf (String.length "legacy");
  Buffer.add_string buf "legacy";
  Buffer.add_int32_le buf 1l;
  Buffer.add_int64_le buf (Int64.bits_of_float (Packet.ts p));
  List.iter
    (fun f -> Buffer.add_int32_le buf (Int32.of_int (Packet.get p f)))
    v1_fields;
  let path = tmp "v1.ntrc" in
  let oc = open_out_bin path in
  Buffer.output_buffer oc buf;
  close_out oc;
  let loaded = Trace_io.load path in
  checki "one packet" 1 (Gen.length loaded);
  let q = (Gen.packets loaded).(0) in
  checkb "timestamp preserved" true (Packet.ts q = 1.5);
  List.iter
    (fun f -> checki (Field.to_string f) (Packet.get p f) (Packet.get q f))
    v1_fields;
  checki "ip_ver defaults to 4" 4 (Packet.get q Field.Ip_ver);
  checki "icmp_type zero" 0 (Packet.get q Field.Icmp_type);
  checki "tun_id zero" 0 (Packet.get q Field.Tun_id);
  Sys.remove path

let test_profile_name_preserved () =
  let trace = Gen.generate ~seed:7 (Profile.with_flows Profile.mawi_like 50) in
  let path = tmp "name.ntrc" in
  Trace_io.save trace path;
  let loaded = Trace_io.load path in
  Alcotest.(check string) "name carries a loaded: prefix" "loaded:mawi-like"
    (Gen.profile loaded).Profile.name;
  Sys.remove path

let test_empty_trace () =
  let path = tmp "empty.ntrc" in
  Trace_io.save (Gen.of_packets ~name:"none" [||]) path;
  checki "empty round-trips" 0 (Gen.length (Trace_io.load path));
  Sys.remove path

let expect_format_error name f =
  checkb name true (try ignore (f ()); false with Trace_io.Format_error _ -> true)

let test_rejects_bad_magic () =
  let path = tmp "badmagic.ntrc" in
  let oc = open_out_bin path in
  output_string oc "XXXX\x01";
  close_out oc;
  expect_format_error "bad magic" (fun () -> Trace_io.load path);
  Sys.remove path

let test_rejects_bad_version () =
  let path = tmp "badver.ntrc" in
  let oc = open_out_bin path in
  output_string oc "NTRC\x63";
  close_out oc;
  expect_format_error "bad version" (fun () -> Trace_io.load path);
  Sys.remove path

let test_rejects_truncated () =
  let trace = Gen.generate ~seed:8 (Profile.with_flows Profile.caida_like 40) in
  let path = tmp "trunc.ntrc" in
  Trace_io.save trace path;
  let full = In_channel.with_open_bin path In_channel.input_all in
  let oc = open_out_bin path in
  output_string oc (String.sub full 0 (String.length full / 2));
  close_out oc;
  expect_format_error "truncated data" (fun () -> Trace_io.load path);
  Sys.remove path

(* Field values at or above 2^31 must survive the round-trip: the
   on-disk format stores 32-bit words, and reassembling them with
   tagged-int arithmetic must not sign-extend bit 31. *)
let test_roundtrip_large_field_values () =
  let big = [ 0x7FFFFFFF; 0x80000000; 0xDEADBEEF; 0xFFFFFFFF ] in
  let pkts =
    List.mapi
      (fun i v ->
        let p = Packet.create ~ts:(0.001 *. float_of_int i) () in
        Packet.set p Field.Src_ip v;
        Packet.set p Field.Dst_ip v;
        p)
      big
  in
  let trace = Gen.of_packets ~name:"big-values" (Array.of_list pkts) in
  let path = tmp "bigvals.ntrc" in
  Trace_io.save trace path;
  let loaded = Trace_io.load path in
  checki "packet count" (List.length big) (Gen.length loaded);
  List.iteri
    (fun i v ->
      let q = (Gen.packets loaded).(i) in
      checki "src_ip" v (Packet.get q Field.Src_ip);
      checki "dst_ip" v (Packet.get q Field.Dst_ip);
      checkb "value is non-negative" true (Packet.get q Field.Src_ip >= 0))
    big;
  Sys.remove path

let suite =
  [
    ("roundtrip", `Quick, test_roundtrip);
    ("roundtrip: field values >= 2^31", `Quick, test_roundtrip_large_field_values);
    ("loaded trace replays identically", `Quick, test_loaded_trace_replays_identically);
    ("profile name preserved", `Quick, test_profile_name_preserved);
    ("loads version-1 files", `Quick, test_loads_v1_files);
    ("empty trace", `Quick, test_empty_trace);
    ("rejects bad magic", `Quick, test_rejects_bad_magic);
    ("rejects bad version", `Quick, test_rejects_bad_version);
    ("rejects truncated", `Quick, test_rejects_truncated);
  ]
