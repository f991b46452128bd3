(** Raw captured frames → {!Newton_packet.Packet.t}.

    Parses Ethernet (optionally 802.1Q/QinQ-tagged) → IPv4 or IPv6 →
    TCP/UDP/ICMP/ICMPv6, plus the DNS header bits the catalog queries
    consume (QR flag, answer count) on UDP port 53, plus one level of
    GRE or VXLAN decapsulation.  Anything else — ARP, non-Ethernet link
    layers, frames cut before the headers end, headers whose lengths
    lie — is a counted skip, never an exception: a backbone capture
    always contains traffic the pipeline does not model.

    Skip taxonomy:
    - [Non_ip]: traffic the pipeline does not model at all (ARP, other
      link types, a third VLAN tag, unknown EtherTypes).
    - [Truncated]: the capture ends before the headers the packet
      claims to carry (snaplen cuts, torn final records).
    - [Fragment]: a non-first IP fragment.  It carries no L4 header, so
      decoding it would conflate every fragmented flow into one phantom
      port-0 5-tuple; fragments are skipped and counted instead.
    - [Malformed]: internally inconsistent headers — TCP data offset
      below 20, IHL below 20, total length below the header length, UDP
      length below 8, reserved GRE/VXLAN flag bits set, extension
      headers overrunning the IPv6 payload length.

    Field mapping (documented in docs/INGEST.md):
    - [Pkt_len] is the total IP length in bytes including the IP header
      (for IPv6: 40 + payload length), link layer excluded.
    - [Payload_len] is computed from the IP/L4 {e length fields}, not
      the captured byte count, so snaplen-truncated captures still
      yield the on-the-wire payload size.
    - IPv6 addresses are XOR-folded into the 32-bit [Src_ip]/[Dst_ip]
      words (the four 32-bit address words combined); [Ip_ver]
      distinguishes the address families.
    - A 802.1Q VLAN id maps onto [Ingress_port] (masked to the field's
      9 bits); for QinQ stacks the {e innermost} (customer) VID wins.
    - GRE (with inner IPv4/IPv6) and VXLAN are decapsulated one level:
      the 5-tuple, lengths and TTL describe the {e inner} packet, so
      intents monitor the tunneled flow; [Tun_id] carries the VXLAN VNI
      or GRE key (0 = not tunneled). *)

open Newton_packet

type skip =
  | Non_ip      (** not Ethernet/IP: ARP, other link types, >2 VLAN tags *)
  | Truncated   (** capture ends before the headers do *)
  | Fragment    (** non-first IP fragment: no L4 header to decode *)
  | Malformed   (** internally inconsistent headers (lengths/flags lie) *)

type result = Decoded of Packet.t | Skipped of skip

let ethertype_ipv4 = 0x0800
let ethertype_ipv6 = 0x86DD
let ethertype_vlan = 0x8100
let ethertype_qinq = 0x88A8

let vxlan_port = 4789

let u8 b off = Char.code (Bytes.get b off)
let u16 b off = Bytes.get_uint16_be b off
let u32 b off = Int32.to_int (Bytes.get_int32_be b off) land 0xFFFFFFFF

(* A 128-bit IPv6 address XOR-folded into the 32-bit address word the
   PHV carries.  The fold keeps full entropy for distinct-count and
   per-host queries; Encode writes addresses of the form ::a.b.c.d,
   whose fold is the word itself, so decode∘encode is the identity. *)
let fold_ip6 b off =
  u32 b off lxor u32 b (off + 4) lxor u32 b (off + 8) lxor u32 b (off + 12)

(* Where each field lands in a packet's block, and its width mask:
   {!Field.index} and {!Field.full_mask} written out as constants, so a
   decoded field costs one masked store and no call.  The
   decode∘encode tests compare every field, and test_ingest's width-mask
   test feeds the two masks wire values can exceed. *)
let f_src_ip = 0 and m_src_ip = 0xFFFFFFFF
let f_dst_ip = 1 and m_dst_ip = 0xFFFFFFFF
let f_proto = 2 and m_proto = 0xFF
let f_src_port = 3 and m_src_port = 0xFFFF
let f_dst_port = 4 and m_dst_port = 0xFFFF
let f_tcp_flags = 5 and m_tcp_flags = 0xFF
let f_tcp_seq = 6 and m_tcp_seq = 0xFFFFFFFF
let f_tcp_ack = 7 and m_tcp_ack = 0xFFFFFFFF
let f_pkt_len = 8 and m_pkt_len = 0xFFFF
let f_payload_len = 9 and m_payload_len = 0xFFFF
let f_ttl = 10 and m_ttl = 0xFF
let f_dns_qr = 11 and m_dns_qr = 0x1
let f_dns_ancount = 12 and m_dns_ancount = 0xFFFF
let f_ingress_port = 13 and m_ingress_port = 0x1FF
let f_ip_ver = 14 and m_ip_ver = 0xF
let f_icmp_type = 15 and m_icmp_type = 0xFF
let f_icmp_code = 16 and m_icmp_code = 0xFF
let f_tun_id = 17 and m_tun_id = 0xFFFFFF

(* The decoder writes the packet's block itself, in the layout
   {!Packet.of_bytes} documents: the timestamp's bits at byte 0, field
   [i] as a 32-bit cell at byte [8 + 4 i].  The primitives compile
   inline, so a field costs one store, not a call into [Packet].  The
   block [w] always has [Packet.size] bytes. *)
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] put (w : Bytes.t) i mask v =
  set32 w (8 + (4 * i)) (Int32.of_int (v land mask))

let[@inline] clear (w : Bytes.t) i = set32 w (8 + (4 * i)) 0l

(* Internal control flow: parsing raises, [frame] catches.  Never
   escapes this module. *)
exception Skip of skip

let skipf s = raise (Skip s)

(* IPv6 extension headers we walk through (hop-by-hop, routing,
   destination options share the (next, hdr_ext_len) layout). *)
let is_opt_ext = function 0 | 43 | 60 -> true | _ -> false

let ext_fragment = 44
let ext_no_next = 59
let max_ext_hops = 8

(* The parsers below are top-level functions of the frame's bytes
   [data], the bound [lim] (one past the frame's last byte; every bound
   is checked against it, never against the buffer's end) and the
   packet's block [w].  As closures local to [frame_at] they would cost
   a closure block per frame, more than the packet itself.  Offsets are
   absolute in [data]. *)

let[@inline] need lim off n = if off + n > lim then skipf Truncated

(* Ethernet type walk from an ethertype position, hopping over at most
   two VLAN tags (QinQ).  Returns the l3 offset, the ethertype and the
   innermost nonzero VID (for stacked 802.1ad/802.1Q tags the innermost
   customer tag is the one that identifies the port), packed into one
   int so the walk allocates nothing: [off lsl 28 lor et lsl 12 lor
   vid], read back with [walk_off], [walk_et] and [walk_vid].  An
   offset has 34 bits, far past any capture buffer. *)
let rec eth_walk data lim off hops =
  need lim off 2;
  let et = u16 data off in
  if (et = ethertype_vlan || et = ethertype_qinq) && hops < 2 then begin
    need lim off 6;
    let inner = eth_walk data lim (off + 4) (hops + 1) in
    if inner land 0xFFF <> 0 then inner else inner lor (u16 data (off + 2) land 0xFFF)
  end
  else ((off + 2) lsl 28) lor (et lsl 12)

let[@inline] walk_off r = r lsr 28
let[@inline] walk_et r = (r lsr 12) land 0xFFFF
let[@inline] walk_vid r = r land 0xFFF

(* Bytes a GRE optional word adds when its flag is set in [fl]; top
   level, as a closure over [fl] would be allocated per frame. *)
let[@inline] gre_opt fl mask = if fl land mask <> 0 then 4 else 0

(* Mutually recursive over one level of decapsulation: [depth] is 0 for
   the outer packet, 1 inside a tunnel (no further decap). *)
let rec parse_l3 data lim w ~et ~off ~depth =
  if et = ethertype_ipv4 then parse_ipv4 data lim w ~off ~depth
  else if et = ethertype_ipv6 then parse_ipv6 data lim w ~off ~depth
  else skipf Non_ip

and parse_ipv4 data lim w ~off ~depth =
  need lim off 20;
  let vihl = u8 data off in
  if vihl lsr 4 <> 4 then skipf Malformed;
  let ihl = (vihl land 0xF) * 4 in
  let total_len = u16 data (off + 2) in
  if ihl < 20 || total_len < ihl then skipf Malformed;
  need lim off ihl;
  put w f_ip_ver m_ip_ver 4;
  put w f_src_ip m_src_ip (u32 data (off + 12));
  put w f_dst_ip m_dst_ip (u32 data (off + 16));
  put w f_pkt_len m_pkt_len total_len;
  put w f_ttl m_ttl (u8 data (off + 8));
  let proto = u8 data (off + 9) in
  put w f_proto m_proto proto;
  let frag = u16 data (off + 6) land 0x1FFF in
  if frag <> 0 then skipf Fragment;
  parse_l4 data lim w ~proto ~l4_off:(off + ihl) ~l4_len:(total_len - ihl) ~depth

and parse_ipv6 data lim w ~off ~depth =
  need lim off 40;
  if u8 data off lsr 4 <> 6 then skipf Malformed;
  let payload_len = u16 data (off + 4) in
  put w f_ip_ver m_ip_ver 6;
  put w f_src_ip m_src_ip (fold_ip6 data (off + 8));
  put w f_dst_ip m_dst_ip (fold_ip6 data (off + 24));
  put w f_pkt_len m_pkt_len (Int.min (40 + payload_len) 0xFFFF);
  put w f_ttl m_ttl (u8 data (off + 7));
  ext_walk data lim w ~depth (u8 data (off + 6)) (off + 40) payload_len 0

(* Bounded IPv6 extension-header walk: [budget] is the IPv6 payload
   remaining per the length field; overrunning it is Malformed, running
   off the capture is Truncated. *)
and ext_walk data lim w ~depth next ext_off budget hops =
  if is_opt_ext next then begin
    if hops >= max_ext_hops then skipf Malformed;
    need lim ext_off 2;
    let nh = u8 data ext_off in
    let size = (u8 data (ext_off + 1) + 1) * 8 in
    if size > budget then skipf Malformed;
    need lim ext_off size;
    ext_walk data lim w ~depth nh (ext_off + size) (budget - size) (hops + 1)
  end
  else if next = ext_fragment then begin
    if 8 > budget then skipf Malformed;
    need lim ext_off 8;
    if u16 data (ext_off + 2) lsr 3 <> 0 then skipf Fragment;
    ext_walk data lim w ~depth (u8 data ext_off) (ext_off + 8) (budget - 8) (hops + 1)
  end
  else begin
    put w f_proto m_proto next;
    if next <> ext_no_next then
      parse_l4 data lim w ~proto:next ~l4_off:ext_off ~l4_len:budget ~depth
  end

and parse_l4 data lim w ~proto ~l4_off ~l4_len ~depth =
  if proto = Field.Protocol.tcp then begin
    need lim l4_off 20;
    put w f_src_port m_src_port (u16 data l4_off);
    put w f_dst_port m_dst_port (u16 data (l4_off + 2));
    put w f_tcp_seq m_tcp_seq (u32 data (l4_off + 4));
    put w f_tcp_ack m_tcp_ack (u32 data (l4_off + 8));
    put w f_tcp_flags m_tcp_flags (u8 data (l4_off + 13));
    let dataofs = (u8 data (l4_off + 12) lsr 4) * 4 in
    if dataofs < 20 || dataofs > l4_len then skipf Malformed;
    need lim l4_off dataofs;
    put w f_payload_len m_payload_len (l4_len - dataofs)
  end
  else if proto = Field.Protocol.udp then begin
    need lim l4_off 8;
    let sport = u16 data l4_off and dport = u16 data (l4_off + 2) in
    put w f_src_port m_src_port sport;
    put w f_dst_port m_dst_port dport;
    let udp_len = u16 data (l4_off + 4) in
    if udp_len < 8 then skipf Malformed;
    put w f_payload_len m_payload_len (udp_len - 8);
    (* DNS header bits, when the capture includes them. *)
    if (sport = 53 || dport = 53) && l4_off + 8 + 12 <= lim then begin
      let flags = u16 data (l4_off + 8 + 2) in
      put w f_dns_qr m_dns_qr (flags lsr 15);
      put w f_dns_ancount m_dns_ancount (u16 data (l4_off + 8 + 6))
    end;
    if depth = 0 && dport = vxlan_port && udp_len - 8 >= 8 then
      parse_vxlan data lim w ~off:(l4_off + 8)
  end
  else if proto = Field.Protocol.icmp || proto = Field.Protocol.icmpv6
  then begin
    need lim l4_off 4;
    put w f_icmp_type m_icmp_type (u8 data l4_off);
    put w f_icmp_code m_icmp_code (u8 data (l4_off + 1));
    put w f_payload_len m_payload_len (Int.max 0 (l4_len - 8))
  end
  else if proto = Field.Protocol.gre && depth = 0 then
    parse_gre data lim w ~l4_off ~l4_len
  (* other protocols: IP-level fields only *)

and parse_gre data lim w ~l4_off ~l4_len =
  need lim l4_off 4;
  let fl = u16 data l4_off in
  (* RFC 2784/2890: only C/K/S flags, version 0; anything else is a
     header we would misparse. *)
  if fl land lnot 0xB000 <> 0 then skipf Malformed;
  let hdr = 4 + gre_opt fl 0x8000 + gre_opt fl 0x2000 + gre_opt fl 0x1000 in
  if hdr > l4_len then skipf Malformed;
  need lim l4_off hdr;
  if fl land 0x2000 <> 0 then
    put w f_tun_id m_tun_id (u32 data (l4_off + 4 + gre_opt fl 0x8000));
  let et = u16 data (l4_off + 2) in
  if et = ethertype_ipv4 || et = ethertype_ipv6 then
    parse_l3 data lim w ~et ~off:(l4_off + hdr) ~depth:1
  (* a payload type we don't model: keep the outer IP fields *)

and parse_vxlan data lim w ~off =
  need lim off 8;
  (* RFC 7348: the flags octet of a VXLAN header is exactly 0x08 (VNI
     valid, reserved bits zero).  Anything else on port 4789 is plain
     UDP traffic, not a tunnel — leave it un-decapsulated. *)
  if u8 data off <> 0x08 then ()
  else begin
    put w f_tun_id m_tun_id (u32 data (off + 4) lsr 8);
    (* The outer UDP header must not leak into the inner flow. *)
    clear w f_src_port;
    clear w f_dst_port;
    clear w f_tcp_flags;
    clear w f_tcp_seq;
    clear w f_tcp_ack;
    clear w f_dns_qr;
    clear w f_dns_ancount;
    clear w f_payload_len;
    (* Inner Ethernet frame. *)
    need lim (off + 8) 14;
    let r = eth_walk data lim (off + 8 + 12) 0 in
    if walk_vid r <> 0 then put w f_ingress_port m_ingress_port (walk_vid r);
    parse_l3 data lim w ~et:(walk_et r) ~off:(walk_off r) ~depth:1
  end

(** Decode the Ethernet frame [data] holds from [off], [len] bytes
    long, into a packet stamped [ts]. *)
let frame_at ~linktype ~ts data off len =
  if linktype <> Pcap.linktype_ethernet then Skipped Non_ip
  else if len < 14 then Skipped Truncated
  else
    let lim = off + len in
    match
      let r = eth_walk data lim (off + 12) 0 in
      (* The packet's one block: the timestamp, then every field zero
         (eight bytes a store) before the VID and the parse fill some
         in. *)
      let w = Bytes.create Packet.size in
      set64 w 0 (Int64.bits_of_float ts);
      for k = 1 to (Packet.size / 8) - 1 do
        set64 w (8 * k) 0L
      done;
      put w f_ingress_port m_ingress_port (walk_vid r);
      parse_l3 data lim w ~et:(walk_et r) ~off:(walk_off r) ~depth:0;
      w
    with
    | w -> Decoded (Packet.of_bytes w)
    | exception Skip s -> Skipped s

let frame ?(linktype = Pcap.linktype_ethernet) ~ts data =
  frame_at ~linktype ~ts data 0 (Bytes.length data)

let skip_to_string = function
  | Non_ip -> "non-ip"
  | Truncated -> "truncated"
  | Fragment -> "fragment"
  | Malformed -> "malformed"
