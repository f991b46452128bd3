(** Tests for Newton_packet: fields, packets, 5-tuples, SP header. *)

open Newton_packet

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

(* ---------------- Field ---------------- *)

let test_field_index_roundtrip () =
  List.iter
    (fun f -> checkb "of_index . index = id" true (Field.of_index (Field.index f) = f))
    Field.all

let test_field_indices_unique () =
  let idxs = List.map Field.index Field.all in
  checki "unique indices" (List.length idxs) (List.length (List.sort_uniq compare idxs))

(* [Field.index] is the constructor's runtime value, so this pins
   [Field.all] to the declaration order. *)
let test_field_index_is_position () =
  List.iteri (fun i f -> checki (Field.to_string f) i (Field.index f)) Field.all

let test_field_count () = checki "count matches all" (List.length Field.all) Field.count

let test_field_string_roundtrip () =
  List.iter
    (fun f -> checkb "of_string . to_string = id" true (Field.of_string (Field.to_string f) = f))
    Field.all

let test_field_of_string_rejects () =
  Alcotest.check_raises "unknown field"
    (Invalid_argument "Field.of_string: unknown field bogus") (fun () ->
      ignore (Field.of_string "bogus"))

let test_field_widths () =
  checki "ip width" 32 (Field.width Field.Src_ip);
  checki "port width" 16 (Field.width Field.Dst_port);
  checki "flags width" 8 (Field.width Field.Tcp_flags);
  checki "qr width" 1 (Field.width Field.Dns_qr)

let test_field_full_mask () =
  checki "8-bit mask" 0xff (Field.full_mask Field.Proto);
  checki "16-bit mask" 0xffff (Field.full_mask Field.Src_port);
  checki "32-bit mask" 0xffffffff (Field.full_mask Field.Src_ip)

let test_tcp_flag_constants () =
  checki "syn" 2 Field.Tcp_flag.syn;
  checki "syn|ack" 0x12 Field.Tcp_flag.syn_ack;
  checki "fin" 1 Field.Tcp_flag.fin

(* ---------------- Packet ---------------- *)

let test_packet_get_set () =
  let p = Packet.create () in
  Packet.set p Field.Src_ip 0xC0A80101;
  checki "set/get" 0xC0A80101 (Packet.get p Field.Src_ip)

let test_packet_set_masks_to_width () =
  let p = Packet.create () in
  Packet.set p Field.Proto 0x1ff;
  checki "proto truncated to 8 bits" 0xff (Packet.get p Field.Proto)

let test_packet_make_defaults () =
  let p = Packet.make () in
  checki "default src" 0 (Packet.get p Field.Src_ip);
  checki "default len" 64 (Packet.get p Field.Pkt_len);
  checki "default ttl" 64 (Packet.get p Field.Ttl)

let test_packet_flags_helpers () =
  let syn = Packet.make ~proto:6 ~tcp_flags:Field.Tcp_flag.syn () in
  checkb "is_syn" true (Packet.is_syn syn);
  checkb "not syn_ack" false (Packet.is_syn_ack syn);
  let synack = Packet.make ~proto:6 ~tcp_flags:Field.Tcp_flag.syn_ack () in
  checkb "is_syn_ack" true (Packet.is_syn_ack synack);
  checkb "syn_ack is not pure syn" false (Packet.is_syn synack);
  let udp = Packet.make ~proto:17 ~tcp_flags:Field.Tcp_flag.syn () in
  checkb "udp is never syn" false (Packet.is_syn udp)

let test_packet_copy_isolated () =
  let p = Packet.make ~src_ip:1 () in
  let q = Packet.copy p in
  Packet.set q Field.Src_ip 2;
  checki "original unchanged" 1 (Packet.get p Field.Src_ip)

let test_packet_with_ts () =
  let p = Packet.make ~ts:1.0 () in
  let q = Packet.with_ts p 2.0 in
  checkb "new ts" true (Packet.ts q = 2.0);
  checkb "old ts intact" true (Packet.ts p = 1.0)

(* qcheck: the one-block packet round-trips every field value and every
   timestamp bit pattern — fields all 0, all at their full mask or drawn
   per field from {0, mask, random}; timestamps 0.0, -0.0, subnormals,
   1e9 or random — through [set]/[get], [ts], [copy], [with_ts] and a
   [Flat] arena ([of_packets] → [to_packets]).  Timestamps are compared
   by their bits, so -0.0 must not come back as 0.0. *)
let arb_block =
  let open QCheck.Gen in
  let ts =
    oneof
      [ oneofl [ 0.0; -0.0; 5e-324; 2.225073858507201e-308; 1e-310; 1e9; 1e9 +. 0.000123 ];
        float_range 0.0 1e9 ]
  in
  let masks = List.map Field.full_mask Field.all in
  let values =
    oneof
      [ return (List.map (fun _ -> 0) Field.all);
        return masks;
        flatten_l (List.map (fun m -> oneof [ return 0; return m; int_range 0 m ]) masks) ]
  in
  QCheck.make
    ~print:(fun (ts, ts', vs) ->
      Printf.sprintf "ts=%h ts'=%h [%s]" ts ts'
        (String.concat "; " (List.map string_of_int vs)))
    (triple ts ts values)

let qcheck_block_roundtrip =
  QCheck.Test.make ~count:1000 ~name:"packet block round trip (fields, ts bits, flat)"
    arb_block (fun (ts, ts', vs) ->
      let bits = Int64.bits_of_float in
      let holds p ts =
        bits (Packet.ts p) = bits ts
        && List.for_all2 (fun f v -> Packet.get p f = v) Field.all vs
      in
      let p = Packet.create ~ts () in
      List.iter2 (Packet.set p) Field.all vs;
      let q = Packet.copy p in
      let r = Packet.with_ts p ts' in
      let back = Flat.to_packets (Flat.of_packets [| p; r |]) in
      holds p ts && holds q ts && q = p && holds r ts' && holds back.(0) ts
      && holds back.(1) ts' && back.(0) = p && back.(1) = r)

let test_ip_string_roundtrip () =
  let ip = Packet.ip_of_string "10.200.0.1" in
  checks "roundtrip" "10.200.0.1" (Packet.ip_to_string ip);
  checki "value" 0x0AC80001 ip

let test_ip_of_string_rejects () =
  List.iter
    (fun s ->
      checkb ("rejects " ^ s) true
        (try
           ignore (Packet.ip_of_string s);
           false
         with Invalid_argument _ -> true))
    [ "1.2.3"; "256.0.0.1"; "a.b.c.d"; "1.2.3.4.5"; "" ]

(* ---------------- Fivetuple ---------------- *)

let mk_pkt () =
  Packet.make ~src_ip:0x0A000001 ~dst_ip:0x0A000002 ~proto:6 ~src_port:1234
    ~dst_port:80 ()

let test_fivetuple_of_packet () =
  let ft = Fivetuple.of_packet (mk_pkt ()) in
  checki "src" 0x0A000001 ft.Fivetuple.src_ip;
  checki "dport" 80 ft.Fivetuple.dst_port

let test_fivetuple_reverse_involution () =
  let ft = Fivetuple.of_packet (mk_pkt ()) in
  checkb "reverse.reverse = id" true
    (Fivetuple.equal ft (Fivetuple.reverse (Fivetuple.reverse ft)));
  checkb "reverse differs" false (Fivetuple.equal ft (Fivetuple.reverse ft))

let test_fivetuple_hash_consistent () =
  let a = Fivetuple.of_packet (mk_pkt ()) in
  let b = Fivetuple.of_packet (mk_pkt ()) in
  checki "equal tuples hash equal" (Fivetuple.hash a) (Fivetuple.hash b)

(* The tuple hash picks ECMP next hops, so its values are pinned: the
   FNV-style mix as first written, and [hash_packet] = [hash] of the
   packet's tuple. *)
let test_fivetuple_hash_values () =
  let reference (t : Fivetuple.t) =
    let h = ref 0x811c9dc5 in
    let mix v = h := (!h lxor v) * 0x01000193 land max_int in
    mix t.src_ip; mix t.dst_ip; mix t.proto; mix t.src_port; mix t.dst_port;
    !h
  in
  let packets =
    Newton_trace.Gen.packets
      (Newton_trace.Gen.generate ~attacks:Newton_trace.Attack.extended_suite ~seed:3
         (Newton_trace.Profile.with_flows Newton_trace.Profile.caida_like 200))
  in
  Array.iter
    (fun p ->
      let ft = Fivetuple.of_packet p in
      checki "hash = reference" (reference ft) (Fivetuple.hash ft);
      checki "hash_packet = hash" (Fivetuple.hash ft) (Fivetuple.hash_packet p))
    packets

let test_fivetuple_table () =
  let tbl = Fivetuple.Table.create 16 in
  let ft = Fivetuple.of_packet (mk_pkt ()) in
  Fivetuple.Table.replace tbl ft 42;
  checki "table lookup" 42 (Fivetuple.Table.find tbl (Fivetuple.of_packet (mk_pkt ())))

(* ---------------- Sp_header ---------------- *)

let test_sp_size () = checki "12 bytes" 12 Sp_header.size_bytes

let test_sp_roundtrip () =
  let sp = Sp_header.make ~hash1:4095 ~state1:123456 ~hash2:77 ~state2:9999 ~global:31000 in
  checkb "roundtrip" true (Sp_header.equal sp (Sp_header.decode (Sp_header.encode sp)))

let test_sp_empty_roundtrip () =
  checkb "empty roundtrip" true
    (Sp_header.equal Sp_header.empty (Sp_header.decode (Sp_header.encode Sp_header.empty)))

let test_sp_saturation () =
  let sp = Sp_header.make ~hash1:0x12345 ~state1:0x2000000 ~hash2:0 ~state2:0 ~global:(-5) in
  let sp' = Sp_header.decode (Sp_header.encode sp) in
  checki "hash saturates to 16 bits" 0xffff sp'.Sp_header.hash1;
  checki "state saturates to 24 bits" 0xffffff sp'.Sp_header.state1;
  checki "negative clamps to 0" 0 sp'.Sp_header.global

let test_sp_decode_rejects_wrong_size () =
  Alcotest.check_raises "11 bytes"
    (Invalid_argument "Sp_header.decode: expected 12 bytes, got 11") (fun () ->
      ignore (Sp_header.decode (Bytes.create 11)))

let test_sp_overhead_ratio () =
  checkb "<1% at 1500B" true (Sp_header.overhead_ratio ~pkt_len:1500 < 0.01);
  Alcotest.check_raises "rejects 0" (Invalid_argument "Sp_header.overhead_ratio")
    (fun () -> ignore (Sp_header.overhead_ratio ~pkt_len:0))

(* qcheck: SP round-trip over the full in-range domain. *)
let qcheck_sp_roundtrip =
  QCheck.Test.make ~count:500 ~name:"sp_header roundtrip (in-range values)"
    QCheck.(
      quad (int_bound 0xffff) (int_bound 0xffffff) (int_bound 0xffff)
        (int_bound 0xffffff))
    (fun (h1, s1, h2, s2) ->
      let sp = Sp_header.make ~hash1:h1 ~state1:s1 ~hash2:h2 ~state2:s2 ~global:(h1 lxor h2) in
      Sp_header.equal sp (Sp_header.decode (Sp_header.encode sp)))

let suite =
  [
    ("field index roundtrip", `Quick, test_field_index_roundtrip);
    ("field indices unique", `Quick, test_field_indices_unique);
    ("field index is position in all", `Quick, test_field_index_is_position);
    ("field count", `Quick, test_field_count);
    ("field string roundtrip", `Quick, test_field_string_roundtrip);
    ("field of_string rejects", `Quick, test_field_of_string_rejects);
    ("field widths", `Quick, test_field_widths);
    ("field full mask", `Quick, test_field_full_mask);
    ("tcp flag constants", `Quick, test_tcp_flag_constants);
    ("packet get/set", `Quick, test_packet_get_set);
    ("packet set masks to width", `Quick, test_packet_set_masks_to_width);
    ("packet make defaults", `Quick, test_packet_make_defaults);
    ("packet flags helpers", `Quick, test_packet_flags_helpers);
    ("packet copy isolated", `Quick, test_packet_copy_isolated);
    ("packet with_ts", `Quick, test_packet_with_ts);
    ("ip string roundtrip", `Quick, test_ip_string_roundtrip);
    ("ip of_string rejects", `Quick, test_ip_of_string_rejects);
    ("fivetuple of_packet", `Quick, test_fivetuple_of_packet);
    ("fivetuple reverse involution", `Quick, test_fivetuple_reverse_involution);
    ("fivetuple hash consistent", `Quick, test_fivetuple_hash_consistent);
    ("fivetuple hash values", `Quick, test_fivetuple_hash_values);
    ("fivetuple table", `Quick, test_fivetuple_table);
    ("sp size", `Quick, test_sp_size);
    ("sp roundtrip", `Quick, test_sp_roundtrip);
    ("sp empty roundtrip", `Quick, test_sp_empty_roundtrip);
    ("sp saturation", `Quick, test_sp_saturation);
    ("sp decode rejects wrong size", `Quick, test_sp_decode_rejects_wrong_size);
    ("sp overhead ratio", `Quick, test_sp_overhead_ratio);
    QCheck_alcotest.to_alcotest qcheck_sp_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_block_roundtrip;
  ]
