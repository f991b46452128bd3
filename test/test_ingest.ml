(** Tests for the capture-ingestion subsystem: pcap/pcapng readers, the
    pcap writer, frame decode/encode round-trips, malformed-input
    handling, the streaming driver's backpressure and pacing, and the
    export → re-ingest differential against native replay. *)

open Newton_packet
open Newton_ingest
module Stats = Newton_telemetry.Stats
module Gen = Newton_trace.Gen
module Profile = Newton_trace.Profile
module Attack = Newton_trace.Attack
module N = Newton

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) ("newton_" ^ name)

let write_file path b =
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let b = Bytes.create n in
  really_input ic b 0 n;
  close_in ic;
  b

let with_in path f =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> f ic)

let sample_trace ?(seed = 11) ?(flows = 400) () =
  Gen.generate ~attacks:Attack.default_suite ~seed
    (Profile.with_flows Profile.caida_like flows)

(* ---------------- pcap writer → reader ---------------- *)

(* Every record of a classic pcap as (ts, captured bytes, orig_len),
   copied out of the block reader's buffer, and whether the file ended
   on a record boundary. *)
let pcap_records ic =
  let r = Reader.create ic in
  let h = Pcap.read_header r in
  let f = Reader.frame () in
  let rec go acc =
    match Pcap.read_record h r f with
    | Reader.Frame ->
        let data = Bytes.sub (Reader.buffer r) f.Reader.off f.Reader.len in
        go ((f.Reader.ts, data, f.Reader.orig_len) :: acc)
    | Reader.Truncated -> (List.rev acc, false)
    | Reader.End -> (List.rev acc, true)
  in
  (h, go [])

let test_pcap_roundtrip_bits () =
  let path = tmp "rt.pcap" in
  (* Timestamps that are exact in both binary floating point and
     nanosecond integers, so equality can be bitwise. *)
  let stamps = [ 0.0; 0.25; 1.5; 3.375; 1024.0; 4194303.5 ] in
  let datas =
    List.mapi
      (fun i ts -> (ts, Bytes.make (20 + i) (Char.chr (0x40 + i))))
      stamps
  in
  let oc = open_out_bin path in
  let w = Pcap.create_writer oc in
  List.iter (fun (ts, d) -> Pcap.write_record w ~ts d) datas;
  Pcap.flush_writer w;
  close_out oc;
  let h, (recs, clean) = with_in path pcap_records in
  checkb "little-endian" false h.Pcap.big_endian;
  checkb "nanosecond" true h.Pcap.nsec;
  checki "snaplen" 0xFFFF h.Pcap.snaplen;
  checki "linktype" Pcap.linktype_ethernet h.Pcap.linktype;
  checkb "clean end" true clean;
  checki "record count" (List.length datas) (List.length recs);
  List.iter2
    (fun (ts, d) (rts, data, orig_len) ->
      checkb (Printf.sprintf "ts %g bit-identical" ts) true
        (Int64.equal (Int64.bits_of_float ts) (Int64.bits_of_float rts));
      checkb "data identical" true (Bytes.equal d data);
      checki "orig_len" (Bytes.length d) orig_len)
    datas recs;
  (* Idempotence: writing the read-back records reproduces the file
     byte for byte. *)
  let path2 = tmp "rt2.pcap" in
  let oc = open_out_bin path2 in
  let w = Pcap.create_writer oc in
  List.iter
    (fun (ts, data, orig_len) -> Pcap.write_record w ~ts ~orig_len data)
    recs;
  Pcap.flush_writer w;
  close_out oc;
  checkb "write∘read idempotent" true
    (Bytes.equal (read_file path) (read_file path2));
  Sys.remove path;
  Sys.remove path2

let test_split_ts () =
  let check what exp got =
    Alcotest.(check (pair int int)) what exp got
  in
  check "nsec 2.5" (2, 500_000_000) (Pcap.split_ts 2.5);
  check "nsec integer" (7, 0) (Pcap.split_ts 7.0);
  (* Sub-second rounding that lands on the next second must carry. *)
  check "nsec carry" (3, 0) (Pcap.split_ts 2.999_999_999_9)

(* Classic pcap is read in all four magic variants; exercise the
   big-endian microsecond one the writer never produces. *)
let test_pcap_big_endian_usec () =
  let buf = Buffer.create 64 in
  let u32 v = Buffer.add_int32_be buf (Int32.of_int v) in
  let u16 v = Buffer.add_uint16_be buf v in
  u32 Pcap.magic_usec;
  u16 2; u16 4;
  u32 0; u32 0;
  u32 65535;
  u32 Pcap.linktype_ethernet;
  (* one record at t = 1.25 s *)
  u32 1; u32 250_000;
  u32 6; u32 60;
  Buffer.add_string buf "abcdef";
  let path = tmp "be.pcap" in
  write_file path (Buffer.to_bytes buf);
  let h, (recs, clean) = with_in path pcap_records in
  checkb "big-endian" true h.Pcap.big_endian;
  checkb "usec" false h.Pcap.nsec;
  (match recs with
  | [ (ts, data, orig_len) ] ->
      checkb "ts 1.25" true (ts = 1.25);
      checki "orig_len" 60 orig_len;
      checkb "data" true (Bytes.equal data (Bytes.of_string "abcdef"))
  | _ -> Alcotest.fail "expected one record");
  checkb "then end" true clean;
  Sys.remove path

(* ---------------- decode ∘ encode ---------------- *)

let fields_equal p q =
  List.for_all (fun f -> Packet.get p f = Packet.get q f) Field.all

let test_decode_encode_generated () =
  let trace = sample_trace () in
  Array.iter
    (fun p ->
      match Decode.frame ~ts:(Packet.ts p) (Encode.frame p) with
      | Decode.Decoded q ->
          if not (fields_equal p q) then
            Alcotest.failf "field mismatch: %s vs %s" (Packet.to_string p)
              (Packet.to_string q)
      | Decode.Skipped s ->
          Alcotest.failf "generated packet skipped (%s): %s"
            (Decode.skip_to_string s) (Packet.to_string p))
    (Gen.packets trace)

let test_decode_encode_handmade () =
  let cases =
    [
      (* VLAN-tagged TCP with seq/ack and options-padded header *)
      Packet.make ~ts:0.5 ~src_ip:0x0A000001 ~dst_ip:0xC0A80102
        ~proto:Field.Protocol.tcp ~src_port:443 ~dst_port:51515
        ~tcp_flags:Field.Tcp_flag.(syn lor ack) ~tcp_seq:0xDEADBEEF
        ~tcp_ack:0x12345678 ~pkt_len:1500 ~payload_len:1440
        ~ingress_port:37 ();
      (* max 9-bit ingress port *)
      Packet.make ~proto:Field.Protocol.tcp ~pkt_len:52 ~payload_len:0
        ~ingress_port:511 ();
      (* DNS response over UDP *)
      Packet.make ~proto:Field.Protocol.udp ~src_port:53 ~dst_port:3333
        ~pkt_len:120 ~payload_len:92 ~dns_qr:1 ~dns_ancount:5 ();
      (* DNS query, client side *)
      Packet.make ~proto:Field.Protocol.udp ~src_port:3333 ~dst_port:53
        ~pkt_len:68 ~payload_len:40 ~dns_qr:0 ();
      (* ICMP echo request: 20 IP + 8 ICMP + 56 payload *)
      Packet.make ~proto:Field.Protocol.icmp ~src_ip:1 ~dst_ip:2 ~pkt_len:84
        ~payload_len:56 ~icmp_type:8 ~ttl:3 ();
      (* ICMP destination-unreachable with a type/code pair *)
      Packet.make ~proto:Field.Protocol.icmp ~src_ip:3 ~dst_ip:4 ~pkt_len:56
        ~payload_len:28 ~icmp_type:3 ~icmp_code:1 ();
      (* IPv6 TCP with a VLAN tag *)
      Packet.make ~ip_ver:6 ~proto:Field.Protocol.tcp ~src_ip:0x20010DB8
        ~dst_ip:0xFE800001 ~src_port:443 ~dst_port:40000
        ~tcp_flags:Field.Tcp_flag.ack ~pkt_len:1000 ~payload_len:940
        ~ingress_port:12 ();
      (* ICMPv6 echo request *)
      Packet.make ~ip_ver:6 ~proto:Field.Protocol.icmpv6 ~src_ip:5 ~dst_ip:6
        ~icmp_type:128 ~pkt_len:104 ~payload_len:56 ();
      (* VXLAN-tunneled inner UDP flow *)
      Packet.make ~proto:Field.Protocol.udp ~src_port:40001 ~dst_port:443
        ~tun_id:0xABCDE ~pkt_len:228 ~payload_len:200 ();
    ]
  in
  List.iter
    (fun p ->
      match Decode.frame ~ts:(Packet.ts p) (Encode.frame p) with
      | Decode.Decoded q ->
          List.iter
            (fun f ->
              checki (Field.to_string f) (Packet.get p f) (Packet.get q f))
            Field.all
      | Decode.Skipped s ->
          Alcotest.failf "skipped (%s)" (Decode.skip_to_string s))
    cases

let test_decode_skips () =
  let skip = function
    | Decode.Skipped s -> Decode.skip_to_string s
    | Decode.Decoded _ -> "decoded"
  in
  let eth ethertype rest =
    let b = Bytes.make (14 + Bytes.length rest) '\x00' in
    Bytes.set_uint16_be b 12 ethertype;
    Bytes.blit rest 0 b 14 (Bytes.length rest);
    b
  in
  Alcotest.(check string) "arp" "non-ip"
    (skip (Decode.frame ~ts:0.0 (eth 0x0806 (Bytes.make 28 '\x00'))));
  Alcotest.(check string) "ipv6 zero version nibble" "malformed"
    (skip (Decode.frame ~ts:0.0 (eth 0x86DD (Bytes.make 40 '\x00'))));
  Alcotest.(check string) "runt frame" "truncated"
    (skip (Decode.frame ~ts:0.0 (Bytes.make 10 '\x00')));
  Alcotest.(check string) "cut before ip header ends" "truncated"
    (skip (Decode.frame ~ts:0.0 (eth 0x0800 (Bytes.make 12 '\x45'))));
  Alcotest.(check string) "non-ethernet linktype" "non-ip"
    (skip (Decode.frame ~linktype:101 ~ts:0.0 (Bytes.make 60 '\x00')));
  (* A later IP fragment has no L4 header: decoding it with port 0 would
     conflate all fragments into one phantom 5-tuple, so it is a typed
     skip instead. *)
  let frag =
    let p =
      Packet.make ~proto:Field.Protocol.tcp ~src_port:80 ~dst_port:8080
        ~pkt_len:400 ~payload_len:340 ()
    in
    let b = Encode.frame p in
    Bytes.set_uint16_be b (14 + 6) 0x00B9 (* fragment offset 185 *);
    b
  in
  Alcotest.(check string) "later ipv4 fragment" "fragment"
    (skip (Decode.frame ~ts:0.0 frag))

(* ---------------- decode hardening regressions ---------------- *)

let skip_name = function
  | Decode.Skipped s -> Decode.skip_to_string s
  | Decode.Decoded _ -> "decoded"

(* TCP data offsets that lie are [Malformed]; a capture that merely ends
   inside the options region is [Truncated].  The distinction is what
   the stage=ingest telemetry counts separately. *)
let test_malformed_tcp_dataofs () =
  let base () =
    Encode.frame
      (Packet.make ~proto:Field.Protocol.tcp ~src_port:80 ~dst_port:8080
         ~pkt_len:52 ~payload_len:0 ())
  in
  let dataofs_off = 14 + 20 + 12 in
  (* dataofs 4*4 = 16 bytes: below the 20-byte minimum. *)
  let b = base () in
  Bytes.set b dataofs_off (Char.chr 0x40);
  Alcotest.(check string) "dataofs below 20" "malformed"
    (skip_name (Decode.frame ~ts:0.0 b));
  (* dataofs 15*4 = 60 bytes: beyond the IP total length's L4 region. *)
  let b = base () in
  Bytes.set b dataofs_off (Char.chr 0xF0);
  Alcotest.(check string) "dataofs beyond total length" "malformed"
    (skip_name (Decode.frame ~ts:0.0 b));
  (* A valid 40-byte option region cut short by the snaplen is a
     truncation of the capture, not a malformed header. *)
  let full =
    Encode.frame
      (Packet.make ~proto:Field.Protocol.tcp ~src_port:80 ~dst_port:8080
         ~pkt_len:1500 ~payload_len:1440 ())
  in
  Alcotest.(check string) "capture cut inside tcp options" "truncated"
    (skip_name (Decode.frame ~ts:0.0 (Bytes.sub full 0 (14 + 20 + 24))))

(* UDP length fields below the 8-byte header are malformed. *)
let test_malformed_udp_length () =
  let b =
    Encode.frame
      (Packet.make ~proto:Field.Protocol.udp ~src_port:1111 ~dst_port:2222
         ~pkt_len:128 ~payload_len:100 ())
  in
  Bytes.set_uint16_be b (14 + 20 + 4) 7;
  Alcotest.(check string) "udp length below 8" "malformed"
    (skip_name (Decode.frame ~ts:0.0 b))

(* Insert [n] 802.1ad service tags (vid [base_vid + i]) in front of
   whatever tag/ethertype the encoded frame already carries. *)
let push_svlan_tags n base_vid frame =
  let extra = 4 * n in
  let b = Bytes.create (Bytes.length frame + extra) in
  Bytes.blit frame 0 b 0 12;
  for i = 0 to n - 1 do
    Bytes.set_uint16_be b (12 + (4 * i)) 0x88A8;
    Bytes.set_uint16_be b (12 + (4 * i) + 2) (base_vid + i)
  done;
  Bytes.blit frame 12 b (12 + extra) (Bytes.length frame - 12);
  b

(* QinQ regression: the innermost (customer) VID identifies the port,
   not the outermost service tag; >2 tags are unmodeled traffic. *)
let test_qinq_inner_vid_wins () =
  let p =
    Packet.make ~proto:Field.Protocol.tcp ~src_port:80 ~dst_port:8080
      ~pkt_len:52 ~payload_len:0 ~ingress_port:42 ()
  in
  let single = Encode.frame p in
  (match Decode.frame ~ts:0.0 single with
  | Decode.Decoded q ->
      checki "single tag vid" 42 (Packet.get q Field.Ingress_port)
  | r -> Alcotest.failf "single tag skipped (%s)" (skip_name r));
  (match Decode.frame ~ts:0.0 (push_svlan_tags 1 500 single) with
  | Decode.Decoded q ->
      checki "qinq customer vid wins" 42 (Packet.get q Field.Ingress_port)
  | r -> Alcotest.failf "qinq frame skipped (%s)" (skip_name r));
  Alcotest.(check string) "three stacked tags" "non-ip"
    (skip_name (Decode.frame ~ts:0.0 (push_svlan_tags 2 500 single)))

(* Hand-built IPv6 frame: [exts] are raw extension-header bytes between
   the fixed header and an 8-byte UDP header; [payload_len] is the
   value written into the IPv6 length field. *)
let ip6_frame ?payload_len ~first_next exts =
  let ext_bytes = Bytes.concat Bytes.empty exts in
  let ext_len = Bytes.length ext_bytes in
  let payload_len = Option.value payload_len ~default:(ext_len + 8) in
  let b = Bytes.make (14 + 40 + ext_len + 8) '\x00' in
  Bytes.set_uint16_be b 12 0x86DD;
  Bytes.set b 14 (Char.chr 0x60);
  Bytes.set_uint16_be b (14 + 4) payload_len;
  Bytes.set b (14 + 6) (Char.chr first_next);
  Bytes.set b (14 + 7) (Char.chr 64);
  Bytes.set_int32_be b (14 + 8 + 12) 5l (* src ::5 *);
  Bytes.set_int32_be b (14 + 24 + 12) 6l (* dst ::6 *);
  let udp_off = 14 + 40 + ext_len in
  Bytes.blit ext_bytes 0 b (14 + 40) ext_len;
  Bytes.set_uint16_be b udp_off 1234;
  Bytes.set_uint16_be b (udp_off + 2) 5678;
  Bytes.set_uint16_be b (udp_off + 4) 8;
  b

let test_ipv6_extension_headers () =
  (* Hop-by-hop then destination options, then UDP. *)
  let hbh next =
    let e = Bytes.make 8 '\x00' in
    Bytes.set e 0 (Char.chr next);
    e
  in
  (match Decode.frame ~ts:0.0 (ip6_frame ~first_next:0 [ hbh 60; hbh 17 ]) with
  | Decode.Decoded q ->
      checki "proto after ext walk" Field.Protocol.udp (Packet.get q Field.Proto);
      checki "src port" 1234 (Packet.get q Field.Src_port);
      checki "pkt_len" (40 + 24) (Packet.get q Field.Pkt_len);
      checki "src_ip fold" 5 (Packet.get q Field.Src_ip)
  | r -> Alcotest.failf "ext chain skipped (%s)" (skip_name r));
  (* Capture cut inside a claimed extension header. *)
  let cut = ip6_frame ~first_next:0 ~payload_len:64 [ hbh 17 ] in
  Alcotest.(check string) "capture cut inside ext header" "truncated"
    (skip_name (Decode.frame ~ts:0.0 (Bytes.sub cut 0 (14 + 40 + 3))));
  (* Extension chain longer than the payload-length field admits. *)
  let lying =
    let e = Bytes.make 8 '\x00' in
    Bytes.set e 0 (Char.chr 17);
    Bytes.set e 1 (Char.chr 3) (* claims (3+1)*8 = 32 bytes *);
    ip6_frame ~first_next:0 ~payload_len:16 [ e ]
  in
  Alcotest.(check string) "ext header overruns payload length" "malformed"
    (skip_name (Decode.frame ~ts:0.0 lying));
  (* No-next-header terminator: IP-level fields only, decoded. *)
  (match Decode.frame ~ts:0.0 (ip6_frame ~first_next:59 ~payload_len:8 []) with
  | Decode.Decoded q ->
      checki "no-next proto" 59 (Packet.get q Field.Proto);
      checki "no-next ports zero" 0 (Packet.get q Field.Src_port)
  | r -> Alcotest.failf "no-next skipped (%s)" (skip_name r));
  (* A non-first IPv6 fragment is a fragment skip, like IPv4. *)
  let frag_ext offset =
    let e = Bytes.make 8 '\x00' in
    Bytes.set e 0 (Char.chr 17);
    Bytes.set_uint16_be e 2 (offset lsl 3);
    e
  in
  Alcotest.(check string) "ipv6 later fragment" "fragment"
    (skip_name (Decode.frame ~ts:0.0 (ip6_frame ~first_next:44 [ frag_ext 100 ])));
  (match Decode.frame ~ts:0.0 (ip6_frame ~first_next:44 [ frag_ext 0 ]) with
  | Decode.Decoded q ->
      checki "first fragment decodes with ports" 1234
        (Packet.get q Field.Src_port)
  | r -> Alcotest.failf "first ipv6 fragment skipped (%s)" (skip_name r))

let test_bogus_gre_flags () =
  let p =
    Packet.make ~proto:Field.Protocol.udp ~src_port:40001 ~dst_port:443
      ~tun_id:0x77 ~pkt_len:128 ~payload_len:100 ()
  in
  let b = Encode.frame ~tunnel:`Gre p in
  (* The GRE flag word sits right after the outer IPv4 header. *)
  let gre_off = 14 + 20 in
  checki "encoded gre has the key flag" 0x2000 (Bytes.get_uint16_be b gre_off);
  Bytes.set_uint16_be b gre_off 0x2001 (* version 1 (PPTP) *);
  Alcotest.(check string) "gre version 1" "malformed"
    (skip_name (Decode.frame ~ts:0.0 b));
  Bytes.set_uint16_be b gre_off 0x2400 (* reserved bit set *);
  Alcotest.(check string) "gre reserved flag" "malformed"
    (skip_name (Decode.frame ~ts:0.0 b))

(* Wire values wider than their PHV field are cut to the field's width:
   a 12-bit VLAN VID to the 9-bit [Ingress_port], a 32-bit GRE key to
   the 24-bit [Tun_id].  Encode never writes such values, so the
   round-trip tests cannot see these masks. *)
let test_decode_width_masks () =
  let p =
    Packet.make ~proto:Field.Protocol.udp ~src_port:40001 ~dst_port:443
      ~ingress_port:5 ~pkt_len:128 ~payload_len:100 ()
  in
  let b = Encode.frame p in
  checki "encoded vlan tci" 5 (Bytes.get_uint16_be b 14);
  Bytes.set_uint16_be b 14 0xFFF;
  (match Decode.frame ~ts:0.0 b with
  | Decode.Decoded q ->
      checki "vid 0xfff masked to 9 bits" 0x1FF (Packet.get q Field.Ingress_port)
  | r -> Alcotest.failf "vlan frame skipped (%s)" (skip_name r));
  let p =
    Packet.make ~proto:Field.Protocol.udp ~src_port:40001 ~dst_port:443
      ~tun_id:0x77 ~pkt_len:128 ~payload_len:100 ()
  in
  let b = Encode.frame ~tunnel:`Gre p in
  (* Key-only GRE: the key word follows the 4-byte flag/type word. *)
  let key_off = 14 + 20 + 4 in
  checki "encoded gre key" 0x77 (Bytes.get_uint16_be b (key_off + 2));
  Bytes.set_int32_be b key_off 0xFFFFFFFFl;
  match Decode.frame ~ts:0.0 b with
  | Decode.Decoded q ->
      checki "gre key 0xffffffff masked to 24 bits" 0xFFFFFF
        (Packet.get q Field.Tun_id)
  | r -> Alcotest.failf "gre frame skipped (%s)" (skip_name r)

(* decode ∘ encode over the extended attack corpus (IPv6, ICMPv6 and
   tunneled flows on top of background traffic), for both tunnel
   encodings. *)
let extended_trace ?(seed = 13) ?(flows = 200) () =
  Gen.generate ~attacks:Attack.extended_suite ~seed
    (Profile.with_flows Profile.caida_like flows)

let test_decode_encode_extended () =
  let trace = extended_trace () in
  let saw_v6 = ref 0 and saw_tun = ref 0 and saw_icmp6 = ref 0 in
  Array.iteri
    (fun i p ->
      if Packet.get p Field.Ip_ver = 6 then incr saw_v6;
      if Packet.get p Field.Tun_id <> 0 then incr saw_tun;
      if Packet.get p Field.Proto = Field.Protocol.icmpv6 then incr saw_icmp6;
      (* Alternate encapsulations so both decap paths see traffic. *)
      let tunnel = if i land 1 = 0 then `Vxlan else `Gre in
      match Decode.frame ~ts:(Packet.ts p) (Encode.frame ~tunnel p) with
      | Decode.Decoded q ->
          if not (fields_equal p q) then
            Alcotest.failf "field mismatch: %s vs %s" (Packet.to_string p)
              (Packet.to_string q)
      | Decode.Skipped s ->
          Alcotest.failf "extended packet skipped (%s): %s"
            (Decode.skip_to_string s) (Packet.to_string p))
    (Gen.packets trace);
  checkb "trace exercises ipv6" true (!saw_v6 > 0);
  checkb "trace exercises tunnels" true (!saw_tun > 0);
  checkb "trace exercises icmpv6" true (!saw_icmp6 > 0)

(* Decoding allocates the packet and nothing else: the packet's one
   block (80 bytes of timestamp and field cells, 12 words with its
   header and padding) and the [Decoded] result (2 words), 14 minor
   words per frame on 64-bit OCaml.  The frames are the extended
   corpus, plain, VXLAN- and GRE-tunneled and behind a QinQ stack, laid
   out in one buffer and decoded in place. *)
let test_decode_minor_words () =
  let frames =
    List.concat_map
      (fun p ->
        [ Encode.frame p; Encode.frame ~tunnel:`Vxlan p; Encode.frame ~tunnel:`Gre p;
          push_svlan_tags 2 500 (Encode.frame p) ])
      (Array.to_list (Gen.packets (extended_trace ())))
  in
  let buf = Bytes.concat Bytes.empty frames in
  let spans =
    Array.of_list
      (List.rev
         (snd
            (List.fold_left
               (fun (off, acc) f -> (off + Bytes.length f, (off, Bytes.length f) :: acc))
               (0, []) frames)))
  in
  let decoded = ref 0 in
  (* a reading boxes its float: take that out of the total *)
  let reading =
    let a = Gc.minor_words () in
    Gc.minor_words () -. a
  in
  let before = Gc.minor_words () in
  for i = 0 to Array.length spans - 1 do
    let off, len = spans.(i) in
    match Decode.frame_at ~linktype:Pcap.linktype_ethernet ~ts:0.0 buf off len with
    | Decode.Decoded _ -> incr decoded
    | Decode.Skipped _ -> ()
  done;
  let words = (Gc.minor_words () -. before -. reading) /. float_of_int !decoded in
  checki "every frame decodes" (Array.length spans) !decoded;
  checkb (Printf.sprintf "%.1f minor words per decoded frame <= 14" words) true
    (words <= 14.0)

(* In-place decode is copied decode: a frame embedded at an offset in a
   larger buffer, random bytes before and after it, decodes exactly as
   the frame copied out on its own — and neither ever raises.  The
   frames mix the extended corpus (v6, ICMPv6, VLAN, GRE and VXLAN
   tunnels), QinQ stacks, IPv6 extension-header chains and raw bytes,
   each possibly cut short or with a byte flipped, so the decoder's
   truncation checks run with readable bytes just past the frame. *)
let test_decode_in_place () =
  let corpus = Gen.packets (extended_trace ~seed:29 ~flows:40 ()) in
  let ext next size =
    let e = Bytes.make size '\x00' in
    Bytes.set e 0 (Char.chr next);
    Bytes.set e 1 (Char.chr ((size / 8) - 1));
    e
  in
  let same a b =
    match (a, b) with
    | Decode.Decoded p, Decode.Decoded q ->
        Packet.ts p = Packet.ts q && fields_equal p q
    | Decode.Skipped s, Decode.Skipped t -> s = t
    | _ -> false
  in
  let decode what f =
    match f () with
    | r -> r
    | exception e ->
        Alcotest.failf "%s decode raised %s" what (Printexc.to_string e)
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"frame_at = frame of the copy" ~count:2000
       QCheck.small_int (fun seed ->
         let rng = Newton_util.Prng.of_int seed in
         let int n = Newton_util.Prng.int rng n in
         let random_bytes n = Bytes.init n (fun _ -> Char.chr (int 256)) in
         let encoded () =
           let p = corpus.(int (Array.length corpus)) in
           match int 4 with
           | 0 -> Encode.frame ~tunnel:`Vxlan p
           | 1 -> Encode.frame ~tunnel:`Gre p
           | _ -> Encode.frame p
         in
         let frame =
           match int 6 with
           | 0 -> random_bytes (int 120)
           | 1 -> push_svlan_tags (1 + int 2) 500 (encoded ())
           | 2 ->
               ip6_frame ~first_next:0
                 [ ext 60 (8 * (1 + int 2)); ext 44 8; ext 17 8 ]
           | _ -> encoded ()
         in
         let frame =
           if int 2 = 0 then Bytes.sub frame 0 (int (Bytes.length frame + 1))
           else frame
         in
         if Bytes.length frame > 0 && int 4 = 0 then
           Bytes.set frame (int (Bytes.length frame)) (Char.chr (int 256));
         let off = int 64 and len = Bytes.length frame in
         let buf =
           Bytes.cat (random_bytes off) (Bytes.cat frame (random_bytes (int 64)))
         in
         let ts = float_of_int seed in
         same
           (decode "in-place" (fun () ->
                Decode.frame_at ~linktype:Pcap.linktype_ethernet ~ts buf off len))
           (decode "copied" (fun () -> Decode.frame ~ts (Bytes.sub buf off len)))))

(* Tunneled flows must attribute to the inner 5-tuple: the whole point
   of decapsulation is that intents monitor the tunneled flow, not the
   tunnel endpoints. *)
let test_tunnel_inner_tuple_attribution () =
  let inner_src = 0x0AC8000C and inner_dst = 0x0AC8000D in
  let p =
    Packet.make ~src_ip:inner_src ~dst_ip:inner_dst
      ~proto:Field.Protocol.udp ~src_port:40001 ~dst_port:443 ~tun_id:0xBEEF
      ~pkt_len:228 ~payload_len:200 ()
  in
  List.iter
    (fun tunnel ->
      let tag = match tunnel with `Vxlan -> "vxlan" | `Gre -> "gre" in
      let b = Encode.frame ~tunnel p in
      (* The outer header really is a different 5-tuple on the wire. *)
      let outer_src = Bytes.get_int32_be b (14 + 12) in
      checkb (tag ^ " outer src differs") true
        (Int32.to_int outer_src land 0xFFFFFFFF <> inner_src);
      match Decode.frame ~ts:0.0 b with
      | Decode.Decoded q ->
          checki (tag ^ " inner src attributed") inner_src
            (Packet.get q Field.Src_ip);
          checki (tag ^ " inner dst attributed") inner_dst
            (Packet.get q Field.Dst_ip);
          checki (tag ^ " inner sport") 40001 (Packet.get q Field.Src_port);
          checki (tag ^ " vni") 0xBEEF (Packet.get q Field.Tun_id)
      | r -> Alcotest.failf "%s frame skipped (%s)" tag (skip_name r))
    [ `Vxlan; `Gre ]

(* Fragment and malformed skips are distinct counted reasons in the
   ingest telemetry, end to end through the capture reader. *)
let test_fragment_malformed_counted () =
  let path = tmp "skips.pcap" in
  let good =
    Encode.frame
      (Packet.make ~proto:Field.Protocol.tcp ~src_port:80 ~dst_port:8080
         ~pkt_len:52 ~payload_len:0 ())
  in
  let fragment =
    let b =
      Encode.frame
        (Packet.make ~proto:Field.Protocol.udp ~src_port:53 ~dst_port:3333
           ~pkt_len:400 ~payload_len:372 ())
    in
    Bytes.set_uint16_be b (14 + 6) 0x00B9;
    b
  in
  let malformed =
    let b =
      Encode.frame
        (Packet.make ~proto:Field.Protocol.tcp ~src_port:1 ~dst_port:2
           ~pkt_len:52 ~payload_len:0 ())
    in
    Bytes.set b (14 + 20 + 12) (Char.chr 0x40);
    b
  in
  let oc = open_out_bin path in
  let w = Pcap.create_writer oc in
  List.iteri (fun i b -> Pcap.write_record w ~ts:(float_of_int i) b)
    [ good; fragment; malformed ];
  Pcap.flush_writer w;
  close_out oc;
  let stats = Stats.create () in
  let loaded = Capture.load ~stats path in
  checki "one packet decoded" 1 (Gen.length loaded);
  checki "fragment counted" 1 (Stats.get stats Stats.Ingest_fragment);
  checki "malformed counted" 1 (Stats.get stats Stats.Ingest_malformed);
  checki "nothing else skipped" 0
    (Stats.get stats Stats.Ingest_non_ip
    + Stats.get stats Stats.Ingest_truncated);
  let i = Capture.info path in
  checki "info fragment" 1 i.Capture.fragment;
  checki "info malformed" 1 i.Capture.malformed;
  Sys.remove path

(* ---------------- export → re-ingest differential ---------------- *)

let report_strings reports =
  reports |> List.map Newton_query.Report.to_string |> List.sort compare

let run_device trace =
  let d = N.Device.create () in
  List.iter (fun q -> ignore (N.Device.add_query d q)) (Newton_query.Catalog.all ());
  N.Device.process_trace d trace;
  report_strings (N.Device.reports d)

(* The extended corpus survives the full pcap round trip: every frame
   (IPv6, ICMPv6, VXLAN-tunneled) re-ingests to the original fields. *)
let test_export_reingest_extended () =
  let trace = extended_trace ~seed:23 ~flows:150 () in
  let path = tmp "ext.pcap" in
  Capture.export trace path;
  let stats = Stats.create () in
  let loaded = Capture.load ~stats path in
  checki "every frame decoded" (Gen.length trace)
    (Stats.get stats Stats.Ingest_decoded);
  checki "no skips" 0
    (Stats.get stats Stats.Ingest_non_ip
    + Stats.get stats Stats.Ingest_truncated
    + Stats.get stats Stats.Ingest_fragment
    + Stats.get stats Stats.Ingest_malformed);
  Array.iteri
    (fun i p ->
      if not (fields_equal p (Gen.packets loaded).(i)) then
        Alcotest.failf "packet %d differs after pcap round trip: %s vs %s" i
          (Packet.to_string p)
          (Packet.to_string (Gen.packets loaded).(i)))
    (Gen.packets trace);
  Sys.remove path

let test_export_reingest_differential () =
  let trace = sample_trace ~seed:21 () in
  let path = tmp "diff.pcap" in
  Capture.export trace path;
  let stats = Stats.create () in
  let loaded = Capture.load ~stats path in
  checki "every frame decoded" (Gen.length trace)
    (Stats.get stats Stats.Ingest_decoded);
  checki "no skips"
    0
    (Stats.get stats Stats.Ingest_non_ip + Stats.get stats Stats.Ingest_truncated);
  Alcotest.(check (list string))
    "identical reports for the full catalog (sequential)" (run_device trace)
    (run_device loaded);
  (* Sharded replay must agree too (per-query-key sharding). *)
  List.iter
    (fun qid ->
      let run_parallel t =
        let q = Newton_query.Catalog.by_id qid in
        let shard_key =
          Newton_runtime.Shard.for_compiled (Newton_compiler.Compose.compile q)
        in
        let pdev = N.Parallel_device.create ~jobs:2 ~shard_key () in
        ignore (N.Parallel_device.add_query pdev q);
        N.Parallel_device.process_trace pdev t;
        report_strings (N.Parallel_device.reports pdev)
      in
      Alcotest.(check (list string))
        (Printf.sprintf "identical reports under --jobs 2 (Q%d)" qid)
        (run_parallel trace) (run_parallel loaded))
    [ 1; 4 ];
  Sys.remove path

(* An empty trace exports to a header-only capture that loads back
   empty. *)
let test_export_reingest_empty () =
  let path = tmp "empty.pcap" in
  Capture.export (Gen.of_packets ~name:"none" [||]) path;
  checki "empty round-trips" 0 (Gen.length (Capture.load path));
  Sys.remove path

(* Field values at or above 2^31 survive export and decode: the frame
   carries 32-bit addresses, and reading them back must not
   sign-extend bit 31. *)
let test_export_reingest_high_bit () =
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
  let path = tmp "bigvals.pcap" in
  Capture.export (Gen.of_packets ~name:"big-values" (Array.of_list pkts)) path;
  let loaded = Capture.load path in
  checki "packet count" (List.length big) (Gen.length loaded);
  List.iteri
    (fun i v ->
      let q = (Gen.packets loaded).(i) in
      checki "src_ip" v (Packet.get q Field.Src_ip);
      checki "dst_ip" v (Packet.get q Field.Dst_ip))
    big;
  Sys.remove path

(* ---------------- malformed input ---------------- *)

let expect_format_error what f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Capture.Format_error" what
  | exception Capture.Format_error _ -> ()

let test_malformed_errors () =
  let path = tmp "bad.pcap" in
  (* zero-length capture *)
  write_file path Bytes.empty;
  expect_format_error "empty file" (fun () -> Capture.load path);
  expect_format_error "empty file info" (fun () -> Capture.info path);
  (* bad magic *)
  write_file path (Bytes.of_string "this is not a capture, sorry");
  expect_format_error "bad magic" (fun () -> Capture.load path);
  (* truncated global header: valid magic, then nothing *)
  let b = Bytes.create 10 in
  Bytes.set_int32_le b 0 (Int32.of_int Pcap.magic_nsec);
  write_file path (Bytes.sub b 0 10);
  expect_format_error "truncated global header" (fun () -> Capture.load path);
  (* pcapng: SHB magic but cut before the body *)
  let b = Bytes.create 8 in
  Bytes.set_int32_le b 0 (Int32.of_int 0x0A0D0D0A);
  Bytes.set_int32_le b 4 28l;
  write_file path b;
  expect_format_error "truncated pcapng SHB" (fun () -> Capture.info path);
  Sys.remove path

let test_truncated_frame_body () =
  let trace = sample_trace ~seed:5 ~flows:60 () in
  let path = tmp "cut.pcap" in
  Capture.export trace path;
  let whole = read_file path in
  (* Cut the final record's body short. *)
  write_file path (Bytes.sub whole 0 (Bytes.length whole - 7));
  let stats = Stats.create () in
  let loaded = Capture.load ~stats path in
  let n = Gen.length trace in
  checki "one packet lost" (n - 1) (Gen.length loaded);
  checki "frames counted" n (Stats.get stats Stats.Ingest_frames);
  checki "truncation counted" 1 (Stats.get stats Stats.Ingest_truncated);
  let i = Capture.info path in
  checkb "info reports unclean end" false i.Capture.clean_end;
  checki "info truncated" 1 i.Capture.truncated;
  (* Cutting inside a record *header* is also a counted skip. *)
  write_file path (Bytes.sub whole 0 (24 + 5));
  let stats2 = Stats.create () in
  let loaded2 = Capture.load ~stats:stats2 path in
  checki "no packets" 0 (Gen.length loaded2);
  checki "header cut counted" 1 (Stats.get stats2 Stats.Ingest_truncated);
  Sys.remove path

(* ---------------- pcapng ---------------- *)

(* Build a pcapng file: one little-endian section with two interfaces
   (usec and nsec resolution) and an unknown block, then a big-endian
   section, checking section reset and per-interface timestamps. *)
let build_pcapng frame_a frame_b frame_c =
  let buf = Buffer.create 512 in
  let block ~be btype body =
    let u32 v =
      if be then Buffer.add_int32_be buf (Int32.of_int v)
      else Buffer.add_int32_le buf (Int32.of_int v)
    in
    let pad = (4 - Bytes.length body land 3) land 3 in
    let total = 12 + Bytes.length body + pad in
    u32 btype;
    u32 total;
    Buffer.add_bytes buf body;
    Buffer.add_string buf (String.make pad '\x00');
    u32 total
  in
  let body ~be k =
    let b = Buffer.create 64 in
    let u16 v =
      if be then Buffer.add_uint16_be b v else Buffer.add_uint16_le b v
    in
    let u32 v =
      if be then Buffer.add_int32_be b (Int32.of_int v)
      else Buffer.add_int32_le b (Int32.of_int v)
    in
    k ~u16 ~u32 b;
    Buffer.to_bytes b
  in
  let shb ~be =
    block ~be 0x0A0D0D0A
      (body ~be (fun ~u16 ~u32 _ ->
           u32 0x1A2B3C4D;
           u16 1; u16 0;
           u32 0xFFFFFFFF; u32 0xFFFFFFFF (* section length unknown *)))
  in
  let idb ~be ~tsresol =
    block ~be 0x00000001
      (body ~be (fun ~u16 ~u32 b ->
           u16 Pcap.linktype_ethernet;
           u16 0;
           u32 65535;
           match tsresol with
           | None -> ()
           | Some v ->
               u16 9; u16 1;
               Buffer.add_char b (Char.chr v);
               Buffer.add_string b "\x00\x00\x00";
               u16 0; u16 0 (* opt_endofopt *)))
  in
  let epb ~be ~iface ~hi ~lo frame =
    block ~be 0x00000006
      (body ~be (fun ~u16:_ ~u32 b ->
           u32 iface;
           u32 hi; u32 lo;
           u32 (Bytes.length frame);
           u32 (Bytes.length frame);
           Buffer.add_bytes b frame))
  in
  (* section 1: little-endian *)
  shb ~be:false;
  idb ~be:false ~tsresol:None (* default usec *);
  idb ~be:false ~tsresol:(Some 9) (* nanoseconds *);
  (* unknown block type: must be skipped by length *)
  block ~be:false 0x0BAD
    (body ~be:false (fun ~u16:_ ~u32 _ -> u32 0x12345678));
  epb ~be:false ~iface:0 ~hi:0 ~lo:2_500_000 frame_a (* 2.5 s in usec *);
  epb ~be:false ~iface:1 ~hi:0 ~lo:750_000_000 frame_b (* 0.75 s in ns *);
  (* section 2: big-endian, fresh interface table *)
  shb ~be:true;
  idb ~be:true ~tsresol:None;
  epb ~be:true ~iface:0 ~hi:0 ~lo:125_000 frame_c (* 0.125 s in usec *);
  Buffer.to_bytes buf

let test_pcapng_multi_interface () =
  let mk ts src =
    Packet.make ~ts ~src_ip:src ~dst_ip:99 ~proto:Field.Protocol.udp
      ~src_port:1000 ~dst_port:2000 ~pkt_len:64 ~payload_len:36 ()
  in
  let pa = mk 2.5 1 and pb = mk 0.75 2 and pc = mk 0.125 3 in
  let path = tmp "multi.pcapng" in
  write_file path
    (build_pcapng (Encode.frame pa) (Encode.frame pb) (Encode.frame pc));
  let stats = Stats.create () in
  let loaded = Capture.load ~stats path in
  checki "three frames" 3 (Stats.get stats Stats.Ingest_frames);
  checki "three decoded" 3 (Stats.get stats Stats.Ingest_decoded);
  let pkts = Gen.packets loaded in
  List.iteri
    (fun i p ->
      let q = pkts.(i) in
      checkb (Printf.sprintf "pkt %d ts" i) true (Packet.ts p = Packet.ts q);
      checkb (Printf.sprintf "pkt %d fields" i) true (fields_equal p q))
    [ pa; pb; pc ];
  let i = Capture.info path in
  checkb "pcapng format" true (i.Capture.format = Capture.Pcapng_format);
  checkb "clean end" true i.Capture.clean_end;
  checki "interfaces in final section" 1 i.Capture.interfaces;
  Sys.remove path

(* Corrupt/giant pcapng block lengths must be rejected before any
   allocation, in both the section-header and the generic block path —
   the classic-pcap reader already caps caplen the same way. *)
let test_pcapng_oversized_block () =
  let path = tmp "huge.pcapng" in
  (* A ~268 MB section header right at the start of the file. *)
  let buf = Buffer.create 16 in
  Buffer.add_int32_le buf (Int32.of_int 0x0A0D0D0A);
  Buffer.add_int32_be buf (Int32.of_int 0x0FFFFFF0);
  write_file path (Buffer.to_bytes buf);
  expect_format_error "giant SHB" (fun () -> Capture.load path);
  (* A ~268 MB unknown block after a valid section header. *)
  let buf = Buffer.create 64 in
  let u32 v = Buffer.add_int32_le buf (Int32.of_int v) in
  u32 0x0A0D0D0A; u32 28;
  u32 0x1A2B3C4D;
  Buffer.add_uint16_le buf 1; Buffer.add_uint16_le buf 0;
  u32 0xFFFFFFFF; u32 0xFFFFFFFF;
  u32 28;
  u32 0x0BAD;
  u32 0x0FFFFFF0;
  write_file path (Buffer.to_bytes buf);
  expect_format_error "giant block" (fun () -> Capture.load path);
  Sys.remove path

(* An IDB snaplen of 0 means "no limit" per the spec; Simple Packet
   Blocks under such an interface must keep their full data. *)
let test_pcapng_spb_snaplen_zero () =
  let buf = Buffer.create 128 in
  let u32 v = Buffer.add_int32_le buf (Int32.of_int v) in
  let u16 v = Buffer.add_uint16_le buf v in
  (* SHB *)
  u32 0x0A0D0D0A; u32 28; u32 0x1A2B3C4D; u16 1; u16 0;
  u32 0xFFFFFFFF; u32 0xFFFFFFFF; u32 28;
  (* IDB declaring snaplen 0 (unlimited) *)
  u32 0x00000001; u32 20; u16 Pcap.linktype_ethernet; u16 0; u32 0; u32 20;
  (* SPB carrying a 60-byte frame *)
  u32 0x00000003; u32 76; u32 60;
  Buffer.add_string buf (String.make 60 'x');
  u32 76;
  let path = tmp "spb.pcapng" in
  write_file path (Buffer.to_bytes buf);
  with_in path (fun ic ->
      let r = Pcapng.create_reader (Reader.create ic) in
      let f = Reader.frame () in
      match Pcapng.read_record r f with
      | Reader.Frame ->
          checki "full frame captured" 60 f.Reader.len;
          checki "orig_len" 60 f.Reader.orig_len;
          checkb "then end" true (Pcapng.read_record r f = Reader.End)
      | _ -> Alcotest.fail "expected a record");
  Sys.remove path

(* ---------------- block reader edges ---------------- *)

let skip_counters stats =
  List.map (Stats.get stats)
    Stats.
      [ Ingest_frames; Ingest_decoded; Ingest_non_ip; Ingest_truncated;
        Ingest_fragment; Ingest_malformed ]

(* Stream [path] through [Capture.with_source] and load it with
   [Capture.load]: both walk the one cursor, so the packets (timestamps
   included) and every skip counter must agree.  Returns the packets
   and the counters (frames, decoded, non-ip, truncated, fragment,
   malformed). *)
let source_equals_load what path =
  let load_stats = Stats.create () in
  let loaded = Gen.packets (Capture.load ~stats:load_stats path) in
  let stats = Stats.create () in
  let streamed =
    Capture.with_source ~stats path (fun src ->
        let rec go acc = match src () with Some p -> go (p :: acc) | None -> acc in
        Array.of_list (List.rev (go [])))
  in
  checki (what ^ ": packet count") (Array.length loaded) (Array.length streamed);
  Array.iteri
    (fun i p ->
      let q = streamed.(i) in
      if not (fields_equal p q && Packet.ts p = Packet.ts q) then
        Alcotest.failf "%s: packet %d differs between with_source and load" what i)
    loaded;
  let counters = skip_counters load_stats in
  Alcotest.(check (list int)) (what ^ ": skip counters") counters
    (skip_counters stats);
  (loaded, counters)

let write_pcap path records =
  let oc = open_out_bin path in
  let w = Pcap.create_writer oc in
  List.iter (fun (ts, b) -> Pcap.write_record w ~ts b) records;
  Pcap.flush_writer w;
  close_out oc

(* An encoded frame padded with trailing bytes to exactly [size]. *)
let padded_frame p size =
  let f = Encode.frame p in
  Bytes.cat f (Bytes.make (size - Bytes.length f) '\x00')

let udp_packet i =
  Packet.make ~ts:(float_of_int i) ~src_ip:(100 + i) ~dst_ip:7
    ~proto:Field.Protocol.udp ~src_port:1000 ~dst_port:2000 ~pkt_len:64
    ~payload_len:36 ()

(* A record larger than the 64 KiB block grows the buffer for itself;
   the records on either side still decode. *)
let test_block_large_record () =
  let path = tmp "large.pcap" in
  let size = Reader.block_size + 40_000 in
  write_pcap path
    [ (0.0, Encode.frame (udp_packet 0)); (1.0, padded_frame (udp_packet 1) size);
      (2.0, Encode.frame (udp_packet 2)) ];
  let packets, counters = source_equals_load "large record" path in
  Alcotest.(check (list int)) "three decoded" [ 3; 3; 0; 0; 0; 0 ] counters;
  Array.iteri
    (fun i p -> checki "source address" (100 + i) (Packet.get p Field.Src_ip))
    packets;
  Sys.remove path

(* The first record fills the first block up to [k] bytes before its
   end, so the second record's 16-byte header straddles the refill. *)
let test_block_split_header () =
  let path = tmp "split.pcap" in
  List.iter
    (fun k ->
      let first = Reader.block_size - 24 - 16 - k in
      write_pcap path
        [ (0.0, padded_frame (udp_packet 0) first);
          (1.0, Encode.frame (udp_packet 1)); (2.0, Encode.frame (udp_packet 2)) ];
      let what = Printf.sprintf "header split %d bytes before the refill" k in
      let packets, counters = source_equals_load what path in
      Alcotest.(check (list int)) (what ^ ": all decoded") [ 3; 3; 0; 0; 0; 0 ]
        counters;
      checki (what ^ ": second record") 101 (Packet.get packets.(1) Field.Src_ip))
    [ 1; 8; 15; 16 ];
  Sys.remove path

(* A file cut inside the final record's header, or inside its body, is
   exactly one truncated skip. *)
let test_block_cut_record () =
  let path = tmp "cutedge.pcap" in
  let records = List.init 5 (fun i -> (float_of_int i, Encode.frame (udp_packet i))) in
  write_pcap path records;
  let whole = read_file path in
  let last = Bytes.length (Encode.frame (udp_packet 4)) in
  List.iter
    (fun (what, cut) ->
      write_file path (Bytes.sub whole 0 (Bytes.length whole - cut));
      let packets, counters = source_equals_load what path in
      checki (what ^ ": four packets") 4 (Array.length packets);
      Alcotest.(check (list int)) (what ^ ": one truncated skip")
        [ 5; 4; 0; 1; 0; 0 ] counters)
    [ ("cut mid-header", last + 9); ("cut mid-body", last / 2) ];
  Sys.remove path

(* The other layouts: big-endian microsecond pcap and a two-section
   pcapng, through the same cursor. *)
let test_block_other_layouts () =
  let frames = List.init 3 (fun i -> Encode.frame (udp_packet i)) in
  let buf = Buffer.create 512 in
  let u32 v = Buffer.add_int32_be buf (Int32.of_int v) in
  u32 Pcap.magic_usec;
  Buffer.add_uint16_be buf 2;
  Buffer.add_uint16_be buf 4;
  u32 0; u32 0; u32 65535; u32 Pcap.linktype_ethernet;
  List.iteri
    (fun i f ->
      u32 i; u32 250_000;
      u32 (Bytes.length f); u32 (Bytes.length f);
      Buffer.add_bytes buf f)
    frames;
  let path = tmp "layouts.pcap" in
  write_file path (Buffer.to_bytes buf);
  let packets, counters = source_equals_load "big-endian usec" path in
  Alcotest.(check (list int)) "big-endian: all decoded" [ 3; 3; 0; 0; 0; 0 ]
    counters;
  checkb "big-endian: usec stamps" true (Packet.ts packets.(2) = 2.25);
  (match frames with
  | [ a; b; c ] -> write_file path (build_pcapng a b c)
  | _ -> assert false);
  let packets, counters = source_equals_load "pcapng" path in
  Alcotest.(check (list int)) "pcapng: all decoded" [ 3; 3; 0; 0; 0; 0 ] counters;
  checkb "pcapng: per-interface stamps" true
    (List.map Packet.ts (Array.to_list packets) = [ 2.5; 0.75; 0.125 ]);
  Sys.remove path

(* The extended-suite export through the block reader is the generated
   trace: fields exact, stamps within the writer's half nanosecond. *)
let test_block_extended_export () =
  let trace = extended_trace ~seed:31 ~flows:300 () in
  let path = tmp "ext-block.pcap" in
  Capture.export trace path;
  let packets, counters = source_equals_load "extended export" path in
  let n = Gen.length trace in
  Alcotest.(check (list int)) "every frame decoded" [ n; n; 0; 0; 0; 0 ] counters;
  Array.iteri
    (fun i p ->
      let q = packets.(i) in
      if not (fields_equal p q && Float.abs (Packet.ts p -. Packet.ts q) <= 0.5e-9)
      then
        Alcotest.failf "packet %d differs from the generated trace: %s vs %s" i
          (Packet.to_string p) (Packet.to_string q))
    (Gen.packets trace);
  Sys.remove path

(* ---------------- streaming driver ---------------- *)

let seq_packets n =
  Array.init n (fun i ->
      Packet.make ~ts:(float_of_int i *. 0.002) ~src_ip:i ~dst_ip:1
        ~proto:Field.Protocol.udp ~pkt_len:64 ~payload_len:20 ())

(* Streaming a packet allocates the source's [Some] (2 words) and the
   boxed inter-arrival gap handed to the telemetry sink (2 words):
   nothing per packet in the histogram, the ring or the pull loop.  The
   sink does nothing, so only [Stream.run] is measured, and one queue and
   one chunk hold the whole source, so a run is one arrival turn and
   one service turn: the difference between runs of [n] and [2 n]
   packets is [n] packets' worth of pulls. *)
let test_stream_minor_words () =
  let words n =
    let packets = seq_packets n in
    let stats = Stats.create () in
    let before = Gc.minor_words () in
    let s =
      Stream.run ~depth:n ~chunk:n ~stats (Stream.of_packets packets) (fun _ -> ())
    in
    let words = Gc.minor_words () -. before in
    checki "every packet delivered" n s.Stream.delivered;
    words
  in
  let n = 10_000 in
  let per_packet = (words (2 * n) -. words n) /. float_of_int n in
  checkb (Printf.sprintf "%.2f minor words per streamed packet <= 4" per_packet) true
    (per_packet <= 4.0)

(* Drop policy: a burst larger than the queue overruns it
   deterministically — arrivals of 50 against a 10-deep queue keep 10
   and shed 40, twice over a 100-packet source. *)
let test_stream_drop () =
  let stats = Stats.create () in
  let delivered = ref [] in
  let s =
    Stream.run ~depth:10 ~chunk:10 ~burst:50 ~policy:Stream.Drop ~stats
      (Stream.of_packets (seq_packets 100))
      (fun batch -> Array.iter (fun p -> delivered := p :: !delivered) batch)
  in
  checki "delivered" 20 s.Stream.delivered;
  checki "dropped" 80 s.Stream.dropped;
  checki "conservation" 100 (s.Stream.delivered + s.Stream.dropped);
  checki "dropped counter" 80 (Stats.get stats Stats.Ingest_dropped);
  (* Survivors arrive in source order. *)
  let ids =
    List.rev_map (fun p -> Packet.get p Field.Src_ip) !delivered
  in
  checkb "in order" true (List.sort compare ids = ids)

let test_stream_block () =
  let stats = Stats.create () in
  let count = ref 0 in
  let s =
    Stream.run ~depth:10 ~chunk:10 ~burst:50 ~policy:Stream.Block ~stats
      (Stream.of_packets (seq_packets 100))
      (fun batch -> count := !count + Array.length batch)
  in
  checki "all delivered" 100 s.Stream.delivered;
  checki "sink saw all" 100 !count;
  checki "nothing dropped" 0 s.Stream.dropped;
  checki "ten full chunks" 10 s.Stream.chunks;
  (* Queue depth was observed; inter-arrival gaps were recorded. *)
  (match Stats.queue_depth stats with
  | Some h -> checkb "queue depth observed" true (Newton_telemetry.Hist.count h > 0)
  | None -> Alcotest.fail "no queue-depth histogram");
  match Stats.interarrival stats with
  | Some h -> checki "interarrival gaps" 99 (Newton_telemetry.Hist.count h)
  | None -> Alcotest.fail "no interarrival histogram"

(* Regression: [Block] with a queue shallower than the chunk used to
   livelock — the arrival budget hit 0 at a full queue while the
   service condition (a whole chunk queued) stayed unreachable.  The
   queue now drains at its high-water mark instead. *)
let test_stream_block_shallow_queue () =
  let count = ref 0 in
  let s =
    Stream.run ~depth:4 ~chunk:16 ~policy:Stream.Block
      (Stream.of_packets (seq_packets 50))
      (fun batch ->
        checkb "batch capped by depth" true (Array.length batch <= 4);
        count := !count + Array.length batch)
  in
  checki "all delivered" 50 s.Stream.delivered;
  checki "sink saw all" 50 !count;
  checki "nothing dropped" 0 s.Stream.dropped;
  checki "depth-sized chunks" 13 s.Stream.chunks;
  (* The paced path must drain a shallow queue too. *)
  let s =
    Stream.run ~depth:4 ~chunk:16 ~policy:Stream.Block
      ~pace:(Stream.Realtime 1000.0)
      (Stream.of_packets (seq_packets 20))
      (fun _ -> ())
  in
  checki "paced: all delivered" 20 s.Stream.delivered;
  checki "paced: nothing dropped" 0 s.Stream.dropped

let test_stream_realtime_pacing () =
  let pkts = seq_packets 60 in
  (* 118 ms of capture at 4x → at least ~30 ms of wall clock. *)
  let s =
    Stream.run ~pace:(Stream.Realtime 4.0)
      (Stream.of_packets pkts)
      (fun _ -> ())
  in
  checki "all delivered" 60 s.Stream.delivered;
  checki "none dropped" 0 s.Stream.dropped;
  checkb "paced slower than asap" true (s.Stream.wall_seconds >= 0.02);
  checkb "speedup respected" true (s.Stream.wall_seconds < 2.0)

let test_stream_invalid_args () =
  let src = Stream.of_packets (seq_packets 1) in
  let expect what f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" what
    | exception Invalid_argument _ -> ()
  in
  expect "depth 0" (fun () -> Stream.run ~depth:0 src (fun _ -> ()));
  expect "chunk 0" (fun () -> Stream.run ~chunk:0 src (fun _ -> ()));
  expect "burst 0" (fun () -> Stream.run ~burst:0 src (fun _ -> ()));
  expect "speedup 0" (fun () ->
      Stream.run ~pace:(Stream.Realtime 0.0) src (fun _ -> ()))

(* Streaming a capture file delivers the same packets as loading it. *)
let test_stream_from_capture_file () =
  let trace = sample_trace ~seed:3 ~flows:80 () in
  let path = tmp "stream.pcap" in
  Capture.export trace path;
  let got = ref [] in
  let s =
    Capture.with_source path (fun src ->
        Stream.run ~depth:64 ~chunk:16 src (fun batch ->
            Array.iter (fun p -> got := p :: !got) batch))
  in
  checki "delivered everything" (Gen.length trace) s.Stream.delivered;
  let got = Array.of_list (List.rev !got) in
  (* Streaming must equal loading the same file (timestamps included —
     both went through the same nanosecond quantization). *)
  Array.iteri
    (fun i p ->
      if not (fields_equal p got.(i) && Packet.ts p = Packet.ts got.(i)) then
        Alcotest.failf "packet %d differs between stream and load" i)
    (Gen.packets (Capture.load path));
  (* And stay within the writer's half-nanosecond of the original. *)
  Array.iteri
    (fun i p ->
      checkb
        (Printf.sprintf "packet %d ts within 0.5 ns" i)
        true
        (Float.abs (Packet.ts p -. Packet.ts got.(i)) <= 0.5e-9);
      if not (fields_equal p got.(i)) then
        Alcotest.failf "packet %d fields differ after streaming" i)
    (Gen.packets trace);
  Sys.remove path

(* Everything [Stream.run] decides, as one line: batch sizes in
   delivery order (run-length encoded), the summary counts, and the
   queue-depth and inter-arrival histograms (counts and sum). *)
let stream_fingerprint ?burst ?(pace = Stream.Asap) ~depth ~chunk ~policy n =
  let stats = Stats.create () in
  let sizes = ref [] in
  let s =
    Stream.run ~depth ~chunk ?burst ~pace ~policy ~stats
      (Stream.of_packets (seq_packets n))
      (fun b -> sizes := Array.length b :: !sizes)
  in
  let rle =
    List.fold_left
      (fun acc k ->
        match acc with
        | (k', c) :: rest when k' = k -> (k, c + 1) :: rest
        | _ -> (k, 1) :: acc)
      [] (List.rev !sizes)
    |> List.rev_map (fun (k, c) -> Printf.sprintf "%dx%d" k c)
    |> String.concat ","
  in
  let hist = function
    | Some h ->
        Printf.sprintf "[%s] sum %.17g"
          (String.concat " "
             (Array.to_list
                (Array.map string_of_int (Newton_telemetry.Hist.counts h))))
          (Newton_telemetry.Hist.sum h)
    | None -> "none"
  in
  Printf.sprintf
    "batches %s; delivered %d dropped %d chunks %d; depth %s; gaps %s" rle
    s.Stream.delivered s.Stream.dropped s.Stream.chunks
    (hist (Stats.queue_depth stats))
    (hist (Stats.interarrival stats))

(* Arrival turns, service turns, chunk boundaries, drops and histogram
   contents, pinned per scenario.  The paced case runs at a speedup
   so large that every packet is due at the first turn, which keeps
   its turns deterministic. *)
let test_stream_pinned () =
  let pin what expected got = Alcotest.(check string) what expected got in
  pin "asap block"
    "batches 16x62,8x1; delivered 1000 dropped 0 chunks 63; depth [0 0 0 1 62 0 0 0 0 0 0 0 0 0] sum 1000; gaps [0 0 0 0 0 0 0 0 0 0 36 963 0 0 0 0 0 0 0 0] sum 1.998"
    (stream_fingerprint ~depth:64 ~chunk:16 ~policy:Stream.Block 1000);
  pin "asap drop, burst > depth"
    "batches 32x6,4x1; delivered 196 dropped 804 chunks 7; depth [0 0 1 0 0 1 5 0 0 0 0 0 0 0] sum 508; gaps [0 0 0 0 0 0 0 0 0 0 36 963 0 0 0 0 0 0 0 0] sum 1.998"
    (stream_fingerprint ~depth:100 ~chunk:32 ~burst:250 ~policy:Stream.Drop
       1000);
  pin "realtime block"
    "batches 32x31,8x1; delivered 1000 dropped 0 chunks 32; depth [0 0 0 1 0 1 30 0 0 0 0 0 0 0] sum 3020; gaps [0 0 0 0 0 0 0 0 0 0 36 963 0 0 0 0 0 0 0 0] sum 1.998"
    (stream_fingerprint ~pace:(Stream.Realtime 1e12) ~depth:100 ~chunk:32
       ~policy:Stream.Block 1000);
  pin "depth < chunk"
    "batches 4x12,2x1; delivered 50 dropped 0 chunks 13; depth [0 1 12 0 0 0 0 0 0 0 0 0 0 0] sum 50; gaps [0 0 0 0 0 0 0 0 0 0 18 31 0 0 0 0 0 0 0 0] sum 0.098000000000000004"
    (stream_fingerprint ~depth:4 ~chunk:16 ~policy:Stream.Block 50);
  pin "wrap-around, burst 500"
    "batches 384x13,8x1; delivered 5000 dropped 0 chunks 14; depth [0 0 0 1 0 0 0 0 2 11 0 0 0 0] sum 10836; gaps [0 0 0 0 0 0 0 0 0 0 2420 2579 0 0 0 0 0 0 0 0] sum 9.9979999999999993"
    (stream_fingerprint ~depth:1000 ~chunk:384 ~burst:500 ~policy:Stream.Block
       5000);
  pin "wrap-around, default burst"
    "batches 384x13,8x1; delivered 5000 dropped 0 chunks 14; depth [0 0 0 1 0 0 0 0 13 0 0 0 0 0] sum 5000; gaps [0 0 0 0 0 0 0 0 0 0 2420 2579 0 0 0 0 0 0 0 0] sum 9.9979999999999993"
    (stream_fingerprint ~depth:1000 ~chunk:384 ~policy:Stream.Block 5000);
  pin "wrap-around, drop"
    "batches 384x8,332x1; delivered 3404 dropped 1596 chunks 9; depth [0 0 0 0 0 0 0 0 1 8 0 0 0 0] sum 7748; gaps [0 0 0 0 0 0 0 0 0 0 2420 2579 0 0 0 0 0 0 0 0] sum 9.9979999999999993"
    (stream_fingerprint ~depth:1000 ~chunk:384 ~burst:700 ~policy:Stream.Drop
       5000)

(* A delivered batch belongs to the sink: overwriting it must not
   change what the next batch holds. *)
let test_stream_batches_owned () =
  let scribble = Packet.make ~src_ip:0xDEAD () in
  let next_id = ref 0 in
  let s =
    Stream.run ~depth:100 ~chunk:32 ~burst:70 ~policy:Stream.Block
      (Stream.of_packets (seq_packets 1000))
      (fun batch ->
        Array.iter
          (fun p ->
            checki "in order, unscribbled" !next_id (Packet.get p Field.Src_ip);
            incr next_id)
          batch;
        Array.fill batch 0 (Array.length batch) scribble)
  in
  checki "all delivered" 1000 s.Stream.delivered;
  checki "sink saw all" 1000 !next_id

let suite =
  [
    Alcotest.test_case "pcap writer/reader bit round-trip" `Quick
      test_pcap_roundtrip_bits;
    Alcotest.test_case "split_ts resolution and carry" `Quick test_split_ts;
    Alcotest.test_case "big-endian usec pcap reads" `Quick
      test_pcap_big_endian_usec;
    Alcotest.test_case "decode∘encode: generated traces" `Quick
      test_decode_encode_generated;
    Alcotest.test_case "decode∘encode: VLAN/DNS/ICMP shapes" `Quick
      test_decode_encode_handmade;
    Alcotest.test_case "decoder skips are counted, never raised" `Quick
      test_decode_skips;
    Alcotest.test_case "malformed tcp data offsets" `Quick
      test_malformed_tcp_dataofs;
    Alcotest.test_case "malformed udp length" `Quick test_malformed_udp_length;
    Alcotest.test_case "qinq: innermost customer vid wins" `Quick
      test_qinq_inner_vid_wins;
    Alcotest.test_case "ipv6 extension-header walk" `Quick
      test_ipv6_extension_headers;
    Alcotest.test_case "bogus gre flags are malformed" `Quick
      test_bogus_gre_flags;
    Alcotest.test_case "vlan vid and gre key masked to field widths" `Quick
      test_decode_width_masks;
    Alcotest.test_case "decode∘encode: extended corpus (v6/icmp6/tunnels)"
      `Quick test_decode_encode_extended;
    Alcotest.test_case "decode allocates only the packet" `Quick
      test_decode_minor_words;
    Alcotest.test_case "in-place decode = decode of the copy (property)"
      `Quick test_decode_in_place;
    Alcotest.test_case "tunneled flows attribute to the inner 5-tuple" `Quick
      test_tunnel_inner_tuple_attribution;
    Alcotest.test_case "fragment/malformed are distinct counted skips" `Quick
      test_fragment_malformed_counted;
    Alcotest.test_case "export→re-ingest: extended corpus round trip" `Quick
      test_export_reingest_extended;
    Alcotest.test_case "export→re-ingest report differential" `Slow
      test_export_reingest_differential;
    Alcotest.test_case "export→re-ingest: empty trace" `Quick
      test_export_reingest_empty;
    Alcotest.test_case "export→re-ingest: field values >= 2^31" `Quick
      test_export_reingest_high_bit;
    Alcotest.test_case "malformed captures raise clean errors" `Quick
      test_malformed_errors;
    Alcotest.test_case "truncated frame body is a counted skip" `Quick
      test_truncated_frame_body;
    Alcotest.test_case "pcapng multi-interface + sections" `Quick
      test_pcapng_multi_interface;
    Alcotest.test_case "pcapng oversized block lengths rejected" `Quick
      test_pcapng_oversized_block;
    Alcotest.test_case "pcapng SPB under snaplen-0 interface" `Quick
      test_pcapng_spb_snaplen_zero;
    Alcotest.test_case "block reader: record larger than the block" `Quick
      test_block_large_record;
    Alcotest.test_case "block reader: header split across a refill" `Quick
      test_block_split_header;
    Alcotest.test_case "block reader: cut mid-header and mid-body" `Quick
      test_block_cut_record;
    Alcotest.test_case "block reader: big-endian usec and pcapng" `Quick
      test_block_other_layouts;
    Alcotest.test_case "block reader: extended export = generated trace"
      `Quick test_block_extended_export;
    Alcotest.test_case "stream backpressure: drop" `Quick test_stream_drop;
    Alcotest.test_case "stream backpressure: block" `Quick test_stream_block;
    Alcotest.test_case "stream block with shallow queue (depth < chunk)" `Quick
      test_stream_block_shallow_queue;
    Alcotest.test_case "stream realtime pacing" `Slow
      test_stream_realtime_pacing;
    Alcotest.test_case "stream argument validation" `Quick
      test_stream_invalid_args;
    Alcotest.test_case "stream turns and histograms pinned" `Quick
      test_stream_pinned;
    Alcotest.test_case "stream allocates at most 4 words per packet" `Quick
      test_stream_minor_words;
    Alcotest.test_case "stream batches are the sink's own" `Quick
      test_stream_batches_owned;
    Alcotest.test_case "stream from capture file" `Quick
      test_stream_from_capture_file;
  ]
