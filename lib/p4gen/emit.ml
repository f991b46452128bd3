(** P4-16 program emission for the v1model architecture.

    Emits one complete, self-contained [newton.p4]: parser (Ethernet /
    SP / QinQ / IPv4 / IPv6 / ICMP / TCP / UDP / DNS / VXLAN / GRE and
    the decapsulated inner stack), a header-normalization prologue that
    projects the wire headers onto the engine's 18 canonical fields
    ([meta.f_*]), the [newton_init] ternary classifier, the
    recirculation machinery for multi-branch intents, and the K/H/S/R
    module tables of the paper's 12-stage compact pipeline plus a
    trigger (T) table per R cell that realizes result guards as range
    matches.

    The program is *static*: every checked intent configures it purely
    through table entries ({!Rules}), never through recompilation — the
    paper's core claim.  {!Newton_p4sim} interprets exactly the subset
    emitted here and differentially tests it against the simulator.

    Conventions the interpreter and controller rely on (documented in
    docs/P4GEN.md):
    - [HashAlgorithm.crc32_custom] is the seeded Newton vector hash: the
      first tuple element is a 60-bit key descriptor (12 x 5-bit field
      codes; code 0 terminates, code i+1 selects canonical field i), the
      remaining 18 elements are the masked per-field key copies; [base]
      is the seed and [max] the modulus.
    - [HashAlgorithm.identity] packs the described keys with the
      compiler's 30-bit fold (direct mode); [base]/[max] are ignored.
    - Table-entry priority is numeric-larger-wins.
    - All sketch state lives in the single [newton_state] register file;
      rules carry per-array base offsets. *)

open Newton_packet

(** Layout parameters: how many stages carry Newton modules, register
    count per allocated state array, and rules per module table. *)
type layout = {
  stages : int;
  registers : int;
  rules_per_table : int;
}

let default_layout =
  {
    stages = Newton_dataplane.Switch.default_stages;
    registers = Newton_dataplane.Module_cost.default_registers;
    rules_per_table = Newton_dataplane.Module_cost.rules_per_module;
  }

(** EtherType carrying the SP header between Newton-enabled switches
    (local-experimental range). *)
let sp_ethertype = 0x88B5

(** Default size (in 32-bit words) of the global [newton_state] register
    file: one array-sized bank per (stage, metadata set). *)
let state_words_of_layout l = l.stages * 2 * l.registers

let table_name ~stage ~kind ~set =
  Printf.sprintf "newton_%s_s%d_m%d"
    (String.lowercase_ascii (Newton_dataplane.Module_cost.kind_to_string kind))
    stage set

(** The trigger table paired with the R table of a (stage, set) cell. *)
let trigger_name ~stage ~set = Printf.sprintf "newton_t_s%d_m%d" stage set

let field_slug f =
  String.map (function '.' -> '_' | c -> c) (Field.to_string f)

(** Canonical normalized metadata field for [f] ([meta.f_sip], ...). *)
let meta_field f = "meta.f_" ^ field_slug f

(* P4 metadata field for a (set, global header field) operation key. *)
let key_field ~set f = Printf.sprintf "key%d_%s" set (field_slug f)

let hash_result ~set = Printf.sprintf "meta.hash%d_result" set
let state_result ~set = Printf.sprintf "meta.state%d_result" set

(** Positions in the 60-bit key descriptor: 12 x 5 bits. *)
let desc_positions = 12

(* ---------------- emission helpers ---------------- *)

let buf_add = Buffer.add_string

let line b fmt = Printf.ksprintf (fun s -> buf_add b s; buf_add b "\n") fmt

(* ---------------- headers ---------------- *)

let emit_headers b =
  buf_add b
    {|// ---------------------------------------------------------------
// Headers
// ---------------------------------------------------------------
header ethernet_t {
    bit<48> dst_addr;
    bit<48> src_addr;
    bit<16> ether_type;
}

// Newton SP header: the inter-switch snapshot of the per-packet
// execution context (CQE, paper section 5).
header sp_t {
    bit<16> class_id;
    bit<16> pending;
    bit<32> hash0;
    bit<32> hash1;
    bit<32> state0;
    bit<32> state1;
    bit<32> g1;
    bit<32> g2;
    bit<16> next_type;
}

header vlan_t {
    bit<3>  pcp;
    bit<1>  dei;
    bit<12> vid;
    bit<16> ether_type;
}

header ipv4_t {
    bit<4>  version;
    bit<4>  ihl;
    bit<8>  dscp_ecn;
    bit<16> total_len;
    bit<16> identification;
    bit<3>  flags;
    bit<13> frag_offset;
    bit<8>  ttl;
    bit<8>  protocol;
    bit<16> checksum;
    bit<32> src_addr;
    bit<32> dst_addr;
}

// IPv6 addresses as four 32-bit words; the canonical field view folds
// them by XOR, matching the simulator's ingest path.
header ipv6_t {
    bit<4>   version;
    bit<8>   traffic_class;
    bit<20>  flow_label;
    bit<16>  payload_len;
    bit<8>   next_hdr;
    bit<8>   hop_limit;
    bit<32>  src_w0;
    bit<32>  src_w1;
    bit<32>  src_w2;
    bit<32>  src_w3;
    bit<32>  dst_w0;
    bit<32>  dst_w1;
    bit<32>  dst_w2;
    bit<32>  dst_w3;
}

header icmp_t {
    bit<8>  type_;
    bit<8>  code;
    bit<16> checksum;
}

header tcp_t {
    bit<16> src_port;
    bit<16> dst_port;
    bit<32> seq_no;
    bit<32> ack_no;
    bit<4>  data_offset;
    bit<4>  res;
    bit<8>  flags;
    bit<16> window;
    bit<16> checksum;
    bit<16> urgent_ptr;
}

header udp_t {
    bit<16> src_port;
    bit<16> dst_port;
    bit<16> length;
    bit<16> checksum;
}

header dns_t {
    bit<16> id;
    bit<1>  qr;
    bit<15> flags;
    bit<16> qdcount;
    bit<16> ancount;
}

header vxlan_t {
    bit<8>  flags;
    bit<24> reserved;
    bit<24> vni;
    bit<8>  reserved2;
}

// GRE with the key bit set (the only variant the canonical
// encapsulation produces).
header gre_t {
    bit<16> flags_version;
    bit<16> protocol;
    bit<32> key;
}

struct headers_t {
    ethernet_t ethernet;
    sp_t       sp;
    vlan_t     vlan0;
    vlan_t     vlan1;
    ipv4_t     ipv4;
    ipv6_t     ipv6;
    icmp_t     icmp;
    tcp_t      tcp;
    udp_t      udp;
    dns_t      dns;
    vxlan_t    vxlan;
    gre_t      gre;
    ethernet_t inner_ethernet;
    ipv4_t     inner_ipv4;
    tcp_t      inner_tcp;
    udp_t      inner_udp;
    icmp_t     inner_icmp;
}

|}

let emit_metadata b =
  buf_add b "struct metadata_t {\n";
  buf_add b "    // survives recirculation (v1model field list 1)\n";
  buf_add b "    @field_list(1) bit<16> pending;\n";
  buf_add b "    bit<16> class_id;\n";
  buf_add b "    bit<1>  query_active;\n";
  buf_add b "    bit<1>  report;\n";
  buf_add b "    // canonical fields, normalized from the wire headers\n";
  List.iter (fun f -> line b "    bit<32> f_%s;" (field_slug f)) Field.all;
  for set = 0 to 1 do
    line b "    // operation-key copy, metadata set %d" set;
    line b "    bit<60> key%d_desc;" set;
    List.iter (fun f -> line b "    bit<32> %s;" (key_field ~set f)) Field.all
  done;
  buf_add b "    bit<32> hash0_result;\n";
  buf_add b "    bit<32> hash1_result;\n";
  buf_add b "    bit<32> state0_result;\n";
  buf_add b "    bit<32> state1_result;\n";
  buf_add b "    bit<32> global_result;\n";
  buf_add b "    bit<32> global_result2;\n";
  buf_add b "}\n\n";
  buf_add b "// report digest: class, key descriptor + per-field keys, aggregates\n";
  buf_add b "struct newton_report_t {\n";
  buf_add b "    bit<16> class_id;\n";
  buf_add b "    bit<60> desc;\n";
  List.iter (fun f -> line b "    bit<32> k_%s;" (field_slug f)) Field.all;
  buf_add b "    bit<32> g1;\n";
  buf_add b "    bit<32> g2;\n";
  buf_add b "}\n\n"

(* ---------------- parser ---------------- *)

let emit_parser b =
  line b
    {|parser NewtonParser(packet_in pkt,
                    out headers_t hdr,
                    inout metadata_t meta,
                    inout standard_metadata_t std_meta) {
    state start {
        pkt.extract(hdr.ethernet);
        transition select(hdr.ethernet.ether_type) {
            0x%04X: parse_sp;
            0x8100: parse_vlan0;
            0x0800: parse_ipv4;
            0x86DD: parse_ipv6;
            default: accept;
        }
    }
    state parse_sp {
        pkt.extract(hdr.sp);
        transition select(hdr.sp.next_type) {
            0x8100: parse_vlan0;
            0x0800: parse_ipv4;
            0x86DD: parse_ipv6;
            default: accept;
        }
    }
    state parse_vlan0 {
        pkt.extract(hdr.vlan0);
        transition select(hdr.vlan0.ether_type) {
            0x8100: parse_vlan1;
            0x0800: parse_ipv4;
            0x86DD: parse_ipv6;
            default: accept;
        }
    }
    state parse_vlan1 {
        pkt.extract(hdr.vlan1);
        transition select(hdr.vlan1.ether_type) {
            0x0800: parse_ipv4;
            0x86DD: parse_ipv6;
            default: accept;
        }
    }
    state parse_ipv4 {
        pkt.extract(hdr.ipv4);
        transition select(hdr.ipv4.protocol) {
            1: parse_icmp;
            6: parse_tcp;
            17: parse_udp;
            47: parse_gre;
            default: accept;
        }
    }
    state parse_ipv6 {
        pkt.extract(hdr.ipv6);
        transition select(hdr.ipv6.next_hdr) {
            6: parse_tcp;
            17: parse_udp;
            58: parse_icmp;
            default: accept;
        }
    }
    state parse_icmp {
        pkt.extract(hdr.icmp);
        transition accept;
    }
    state parse_tcp {
        pkt.extract(hdr.tcp);
        transition accept;
    }
    state parse_udp {
        pkt.extract(hdr.udp);
        transition select(hdr.udp.src_port, hdr.udp.dst_port) {
            (53, _): parse_dns;
            (_, 53): parse_dns;
            (_, 4789): parse_vxlan;
            default: accept;
        }
    }
    state parse_dns {
        pkt.extract(hdr.dns);
        transition accept;
    }
    state parse_vxlan {
        pkt.extract(hdr.vxlan);
        transition parse_inner_ethernet;
    }
    state parse_gre {
        pkt.extract(hdr.gre);
        transition select(hdr.gre.protocol) {
            0x0800: parse_inner_ipv4;
            default: accept;
        }
    }
    state parse_inner_ethernet {
        pkt.extract(hdr.inner_ethernet);
        transition select(hdr.inner_ethernet.ether_type) {
            0x0800: parse_inner_ipv4;
            default: accept;
        }
    }
    state parse_inner_ipv4 {
        pkt.extract(hdr.inner_ipv4);
        transition select(hdr.inner_ipv4.protocol) {
            1: parse_inner_icmp;
            6: parse_inner_tcp;
            17: parse_inner_udp;
            default: accept;
        }
    }
    state parse_inner_icmp {
        pkt.extract(hdr.inner_icmp);
        transition accept;
    }
    state parse_inner_tcp {
        pkt.extract(hdr.inner_tcp);
        transition accept;
    }
    state parse_inner_udp {
        pkt.extract(hdr.inner_udp);
        transition accept;
    }
}
|}
    sp_ethertype

(* ---------------- normalization prologue ---------------- *)

(* Projects the parsed wire headers onto the engine's canonical field
   set.  Must agree with Ingest's Decode on every frame Encode writes
   for a packet the trace generators produce; the differential harness
   proves that empirically. *)
let emit_normalize b =
  buf_add b
    {|        // ---- canonical field normalization ----
        meta.f_ig_port = (bit<32>) std_meta.ingress_port;
        if (hdr.ipv4.isValid()) {
            meta.f_sip = hdr.ipv4.src_addr;
            meta.f_dip = hdr.ipv4.dst_addr;
            meta.f_proto = (bit<32>) hdr.ipv4.protocol;
            meta.f_len = (bit<32>) hdr.ipv4.total_len;
            meta.f_ttl = (bit<32>) hdr.ipv4.ttl;
            meta.f_ip_ver = 4;
        } else if (hdr.ipv6.isValid()) {
            // 128-bit addresses fold to the engine's 32-bit key words
            meta.f_sip = hdr.ipv6.src_w0 ^ hdr.ipv6.src_w1 ^ hdr.ipv6.src_w2 ^ hdr.ipv6.src_w3;
            meta.f_dip = hdr.ipv6.dst_w0 ^ hdr.ipv6.dst_w1 ^ hdr.ipv6.dst_w2 ^ hdr.ipv6.dst_w3;
            meta.f_proto = (bit<32>) hdr.ipv6.next_hdr;
            meta.f_len = (bit<32>) hdr.ipv6.payload_len + 40;
            meta.f_ttl = (bit<32>) hdr.ipv6.hop_limit;
            meta.f_ip_ver = 6;
        }
        if (hdr.tcp.isValid()) {
            meta.f_sport = (bit<32>) hdr.tcp.src_port;
            meta.f_dport = (bit<32>) hdr.tcp.dst_port;
            meta.f_tcp_flags = (bit<32>) hdr.tcp.flags;
            meta.f_tcp_seq = hdr.tcp.seq_no;
            meta.f_tcp_ack = hdr.tcp.ack_no;
            if (hdr.ipv4.isValid()) {
                meta.f_payload_len = meta.f_len
                    - (((bit<32>) hdr.ipv4.ihl) << 2)
                    - (((bit<32>) hdr.tcp.data_offset) << 2);
            } else {
                meta.f_payload_len = (meta.f_len - 40)
                    - (((bit<32>) hdr.tcp.data_offset) << 2);
            }
        } else if (hdr.udp.isValid()) {
            meta.f_sport = (bit<32>) hdr.udp.src_port;
            meta.f_dport = (bit<32>) hdr.udp.dst_port;
            meta.f_payload_len = (bit<32>) hdr.udp.length - 8;
        } else if (hdr.icmp.isValid()) {
            meta.f_icmp_type = (bit<32>) hdr.icmp.type_;
            meta.f_icmp_code = (bit<32>) hdr.icmp.code;
            if (hdr.ipv4.isValid()) {
                meta.f_payload_len = meta.f_len - (((bit<32>) hdr.ipv4.ihl) << 2) - 8;
            } else {
                meta.f_payload_len = meta.f_len - 48;
            }
        }
        if (hdr.dns.isValid()) {
            meta.f_dns_qr = (bit<32>) hdr.dns.qr;
            meta.f_dns_ancount = (bit<32>) hdr.dns.ancount;
        }
        // tunnel decapsulation: the inner stack overrides the flow view
        if (hdr.vxlan.isValid()) {
            meta.f_tun_id = (bit<32>) hdr.vxlan.vni;
        } else if (hdr.gre.isValid()) {
            meta.f_tun_id = hdr.gre.key;
        }
        if (hdr.inner_ipv4.isValid()) {
            meta.f_sip = hdr.inner_ipv4.src_addr;
            meta.f_dip = hdr.inner_ipv4.dst_addr;
            meta.f_proto = (bit<32>) hdr.inner_ipv4.protocol;
            meta.f_len = (bit<32>) hdr.inner_ipv4.total_len;
            meta.f_ttl = (bit<32>) hdr.inner_ipv4.ttl;
            meta.f_ip_ver = 4;
            meta.f_sport = 0;
            meta.f_dport = 0;
        }
        if (hdr.inner_tcp.isValid()) {
            meta.f_sport = (bit<32>) hdr.inner_tcp.src_port;
            meta.f_dport = (bit<32>) hdr.inner_tcp.dst_port;
            meta.f_tcp_flags = (bit<32>) hdr.inner_tcp.flags;
            meta.f_tcp_seq = hdr.inner_tcp.seq_no;
            meta.f_tcp_ack = hdr.inner_tcp.ack_no;
            meta.f_payload_len = meta.f_len
                - (((bit<32>) hdr.inner_ipv4.ihl) << 2)
                - (((bit<32>) hdr.inner_tcp.data_offset) << 2);
        } else if (hdr.inner_udp.isValid()) {
            meta.f_sport = (bit<32>) hdr.inner_udp.src_port;
            meta.f_dport = (bit<32>) hdr.inner_udp.dst_port;
            meta.f_payload_len = (bit<32>) hdr.inner_udp.length - 8;
        } else if (hdr.inner_icmp.isValid()) {
            meta.f_icmp_type = (bit<32>) hdr.inner_icmp.type_;
            meta.f_icmp_code = (bit<32>) hdr.inner_icmp.code;
            meta.f_payload_len = meta.f_len - (((bit<32>) hdr.inner_ipv4.ihl) << 2) - 8;
        }
|}

(* ---------------- module actions and tables ---------------- *)

(* K: copy the masked operation keys into this set's metadata and record
   the key descriptor the hash extern consumes. *)
let emit_k_cell b ~stage ~set ~size =
  let t = table_name ~stage ~kind:Newton_dataplane.Module_cost.K ~set in
  line b "    action %s_select(bit<60> desc%s) {" t
    (String.concat ""
       (List.map
          (fun f -> Printf.sprintf ", bit<32> m_%s" (field_slug f))
          Field.all));
  line b "        meta.key%d_desc = desc;" set;
  List.iter
    (fun f ->
      line b "        meta.%s = %s & m_%s;" (key_field ~set f) (meta_field f)
        (field_slug f))
    Field.all;
  line b "    }";
  line b "    table %s {" t;
  line b "        key = { meta.class_id : exact; }";
  line b "        actions = { %s_select; NoAction; }" t;
  line b "        size = %d;" size;
  line b "        default_action = NoAction();";
  line b "    }"

let hash_input ~set =
  Printf.sprintf "{ meta.key%d_desc%s }" set
    (String.concat ""
       (List.map
          (fun f -> Printf.sprintf ", meta.%s" (key_field ~set f))
          Field.all))

(* H: seeded vector hash or direct (packing) mode over the recorded
   keys; the key descriptor rides first in the input tuple. *)
let emit_h_cell b ~stage ~set ~size =
  let t = table_name ~stage ~kind:Newton_dataplane.Module_cost.H ~set in
  line b "    action %s_hash(bit<32> seed, bit<32> range) {" t;
  line b "        hash(%s, HashAlgorithm.crc32_custom, seed, %s, range);"
    (hash_result ~set) (hash_input ~set);
  line b "    }";
  line b "    action %s_direct() {" t;
  line b "        hash(%s, HashAlgorithm.identity, 0, %s, 0);"
    (hash_result ~set) (hash_input ~set);
  line b "    }";
  line b "    table %s {" t;
  line b "        key = { meta.class_id : exact; }";
  line b "        actions = { %s_hash; %s_direct; NoAction; }" t t;
  line b "        size = %d;" size;
  line b "        default_action = NoAction();";
  line b "    }"

(* The nested-conditional canonical-field selector used by S actions
   whose operand comes from a packet field rather than a constant. *)
let field_mux fidx_var =
  let rec go = function
    | [] -> "0"
    | f :: rest ->
        Printf.sprintf "(%s == %d) ? %s : (%s)" fidx_var (Field.index f)
          (meta_field f) (go rest)
  in
  go Field.all

(* S: stateful ALUs over the global register file; [base] relocates the
   rule's array inside [newton_state].  The adds saturate ([|+|]) at
   the register's 2^32-1, as the engine's word cells do. *)
let emit_s_cell b ~stage ~set ~size =
  let t = table_name ~stage ~kind:Newton_dataplane.Module_cost.S ~set in
  let idx = Printf.sprintf "base + %s" (hash_result ~set) in
  let res = state_result ~set in
  line b "    action %s_add(bit<32> base, bit<32> inc) {" t;
  line b "        bit<32> tmp;";
  line b "        newton_state.read(tmp, %s);" idx;
  line b "        tmp = tmp |+| inc;";
  line b "        newton_state.write(%s, tmp);" idx;
  line b "        %s = tmp;" res;
  line b "    }";
  line b "    action %s_add_fld(bit<32> base, bit<32> fidx) {" t;
  line b "        bit<32> tmp;";
  line b "        bit<32> inc = %s;" (field_mux "fidx");
  line b "        newton_state.read(tmp, %s);" idx;
  line b "        tmp = tmp |+| inc;";
  line b "        newton_state.write(%s, tmp);" idx;
  line b "        %s = tmp;" res;
  line b "    }";
  line b "    action %s_max(bit<32> base, bit<32> val) {" t;
  line b "        bit<32> tmp;";
  line b "        newton_state.read(tmp, %s);" idx;
  line b "        tmp = (tmp > val) ? tmp : val;";
  line b "        newton_state.write(%s, tmp);" idx;
  line b "        %s = tmp;" res;
  line b "    }";
  line b "    action %s_max_fld(bit<32> base, bit<32> fidx) {" t;
  line b "        bit<32> tmp;";
  line b "        bit<32> val = %s;" (field_mux "fidx");
  line b "        newton_state.read(tmp, %s);" idx;
  line b "        tmp = (tmp > val) ? tmp : val;";
  line b "        newton_state.write(%s, tmp);" idx;
  line b "        %s = tmp;" res;
  line b "    }";
  (* Bloom bit: transactional or; the *previous* value is the result *)
  line b "    action %s_bf(bit<32> base) {" t;
  line b "        bit<32> tmp;";
  line b "        newton_state.read(tmp, %s);" idx;
  line b "        %s = tmp;" res;
  line b "        newton_state.write(%s, tmp | 1);" idx;
  line b "    }";
  line b "    action %s_pass() {" t;
  line b "        %s = %s;" res (hash_result ~set);
  line b "    }";
  line b "    action %s_read(bit<32> base) {" t;
  line b "        bit<32> tmp;";
  line b "        newton_state.read(tmp, %s);" idx;
  line b "        %s = tmp;" res;
  line b "    }";
  line b "    table %s {" t;
  line b "        key = { meta.class_id : exact; }";
  line b
    "        actions = { %s_add; %s_add_fld; %s_max; %s_max_fld; %s_bf; %s_pass; %s_read; NoAction; }"
    t t t t t t t;
  line b "        size = %d;" size;
  line b "        default_action = NoAction();";
  line b "    }"

(* R, first ply: merge the state result into the global accumulators,
   with the combine step (paper section 4.2) fused where needed. *)
let emit_r_cell b ~stage ~set ~size =
  let t = table_name ~stage ~kind:Newton_dataplane.Module_cost.R ~set in
  let st = state_result ~set in
  let acts =
    [ ("set_g1", [ Printf.sprintf "meta.global_result = %s;" st ]);
      ("min_g1",
       [ Printf.sprintf
           "meta.global_result = (meta.global_result < %s) ? meta.global_result : %s;"
           st st ]);
      ("max_g1",
       [ Printf.sprintf
           "meta.global_result = (meta.global_result > %s) ? meta.global_result : %s;"
           st st ]);
      ("add_g1",
       [ Printf.sprintf "meta.global_result = meta.global_result + %s;" st ]);
      ("sub_g1",
       [ Printf.sprintf
           "meta.global_result = (meta.global_result > %s) ? meta.global_result - %s : 0;"
           st st ]);
      ("set_g2", [ Printf.sprintf "meta.global_result2 = %s;" st ]);
      ("set_g2_comb_sub",
       [ Printf.sprintf "meta.global_result2 = %s;" st;
         "meta.global_result = (meta.global_result > meta.global_result2) ? \
          meta.global_result - meta.global_result2 : 0;" ]);
      ("set_g2_comb_min",
       [ Printf.sprintf "meta.global_result2 = %s;" st;
         "meta.global_result = (meta.global_result < meta.global_result2) ? \
          meta.global_result : meta.global_result2;" ]) ]
  in
  List.iter
    (fun (suffix, body) ->
      line b "    action %s_%s() {" t suffix;
      List.iter (fun s -> line b "        %s" s) body;
      line b "    }")
    acts;
  line b "    table %s {" t;
  line b "        key = { meta.class_id : exact; }";
  line b "        actions = { %s NoAction; }"
    (String.concat " " (List.map (fun (s, _) -> t ^ "_" ^ s ^ ";") acts));
  line b "        size = %d;" size;
  line b "        default_action = NoAction();";
  line b "    }"

(* T, second ply of R: guards become range entries over the post-merge
   values; a miss means "no guard configured here". *)
let emit_t_cell b ~stage ~set ~size =
  let t = trigger_name ~stage ~set in
  line b "    action %s_stop() {" t;
  line b "        meta.query_active = 0;";
  line b "    }";
  line b "    action %s_report() {" t;
  line b "        meta.report = 1;";
  line b "        digest<newton_report_t>(1, {";
  line b "            meta.class_id,";
  line b "            meta.key%d_desc," set;
  List.iter (fun f -> line b "            meta.%s," (key_field ~set f)) Field.all;
  line b "            meta.global_result,";
  line b "            meta.global_result2 });";
  line b "    }";
  line b "    table %s {" t;
  line b "        key = {";
  line b "            meta.class_id : exact;";
  line b "            %s : range;" (state_result ~set);
  line b "            meta.global_result : range;";
  line b "            meta.global_result2 : range;";
  line b "        }";
  line b "        actions = { %s_stop; %s_report; NoAction; }" t t;
  line b "        size = %d;" size;
  line b "        default_action = NoAction();";
  line b "    }"

(* ---------------- classifier / recirculation / fin ---------------- *)

let emit_init b ~size =
  buf_add b
    {|    // newton_init: ternary intent classifier over the canonical fields.
    // class_id selects the branch to run this pass; pending carries the
    // bitmap of further matching branches (recirculation passes).
    action set_class(bit<16> class_id, bit<16> pending) {
        meta.class_id = class_id;
        meta.query_active = 1;
        meta.pending = pending;
    }
|};
  line b "    table newton_init {";
  line b "        key = {";
  List.iter
    (fun f -> line b "            %s : ternary;" (meta_field f))
    Newton_compiler.Ir.init_fields;
  line b "        }";
  line b "        actions = { set_class; NoAction; }";
  line b "        size = %d;" size;
  line b "        default_action = NoAction();";
  line b "    }";
  buf_add b
    {|    // newton_resume: on a recirculated pass, pick the lowest pending
    // branch and clear its bit.
    action resume_class(bit<16> class_id, bit<16> clear_mask) {
        meta.class_id = class_id;
        meta.query_active = 1;
        meta.pending = meta.pending & clear_mask;
    }
    table newton_resume {
        key = { meta.pending : ternary; }
        actions = { resume_class; NoAction; }
        size = 64;
        default_action = NoAction();
    }
    // newton_recirc: a guard stop on branch 0 cancels the remaining
    // branches of the same intent (engine short-circuit semantics).
    action cancel_pending() {
        meta.pending = 0;
    }
    table newton_recirc {
        key = {
            meta.class_id : exact;
            meta.query_active : exact;
        }
        actions = { cancel_pending; NoAction; }
        size = 256;
        default_action = NoAction();
    }
|}

let emit_fin b ~size =
  line b
    {|    // newton_fin: SP-header snapshot of the execution context (CQE).
    action sp_emit() {
        hdr.sp.setValid();
        hdr.sp.class_id = meta.class_id;
        hdr.sp.pending = 0;
        hdr.sp.hash0 = meta.hash0_result;
        hdr.sp.hash1 = meta.hash1_result;
        hdr.sp.state0 = meta.state0_result;
        hdr.sp.state1 = meta.state1_result;
        hdr.sp.g1 = meta.global_result;
        hdr.sp.g2 = meta.global_result2;
        hdr.sp.next_type = hdr.ethernet.ether_type;
        hdr.ethernet.ether_type = 0x%04X;
    }
    action sp_strip() {
        hdr.ethernet.ether_type = hdr.sp.next_type;
        hdr.sp.setInvalid();
    }
    table newton_fin {
        key = { meta.class_id : exact; }
        actions = { sp_emit; sp_strip; NoAction; }
        size = %d;
        default_action = NoAction();
    }|}
    sp_ethertype size

(* ---------------- the full program ---------------- *)

let program ?(layout = default_layout) ?state_words () =
  if layout.stages <= 0 || layout.registers <= 0 || layout.rules_per_table <= 0
  then invalid_arg "Emit.program: layout dimensions must be positive";
  let state_words =
    match state_words with
    | Some w ->
        if w <= 0 then invalid_arg "Emit.program: state_words must be positive";
        w
    | None -> state_words_of_layout layout
  in
  let b = Buffer.create (1 lsl 16) in
  buf_add b "// newton.p4 — generated by `newton p4 emit`; do not edit.\n";
  line b "// layout: %d stages x 2 metadata sets, %d-word state file"
    layout.stages state_words;
  buf_add b "#include <core.p4>\n#include <v1model.p4>\n\n";
  emit_headers b;
  emit_metadata b;
  emit_parser b;
  buf_add b "\n";
  buf_add b
    {|control NewtonIngress(inout headers_t hdr,
                      inout metadata_t meta,
                      inout standard_metadata_t std_meta) {
|};
  line b "    register<bit<32>>(%d) newton_state;" state_words;
  buf_add b "\n";
  emit_init b ~size:(4 * layout.rules_per_table);
  let size = layout.rules_per_table in
  for stage = 0 to layout.stages - 1 do
    for set = 0 to 1 do
      line b "\n    // ---- stage %d, metadata set %d ----" stage set;
      emit_k_cell b ~stage ~set ~size;
      emit_h_cell b ~stage ~set ~size;
      emit_s_cell b ~stage ~set ~size;
      emit_r_cell b ~stage ~set ~size;
      emit_t_cell b ~stage ~set ~size
    done
  done;
  buf_add b "\n";
  emit_fin b ~size:256;
  buf_add b "\n    apply {\n";
  emit_normalize b;
  buf_add b
    {|        // ---- classification (first pass) or resume (recirculated) ----
        if (std_meta.instance_type == 0) {
            newton_init.apply();
        } else {
            newton_resume.apply();
        }
|};
  for stage = 0 to layout.stages - 1 do
    line b "        // stage %d" stage;
    for set = 0 to 1 do
      List.iter
        (fun t -> line b "        if (meta.query_active == 1) { %s.apply(); }" t)
        [ table_name ~stage ~kind:Newton_dataplane.Module_cost.K ~set;
          table_name ~stage ~kind:Newton_dataplane.Module_cost.H ~set;
          table_name ~stage ~kind:Newton_dataplane.Module_cost.S ~set;
          table_name ~stage ~kind:Newton_dataplane.Module_cost.R ~set;
          trigger_name ~stage ~set ]
    done
  done;
  buf_add b
    {|        newton_recirc.apply();
        if (meta.pending != 0) {
            recirculate_preserving_field_list(1);
        } else {
            newton_fin.apply();
        }
    }
}

control NewtonEgress(inout headers_t hdr,
                     inout metadata_t meta,
                     inout standard_metadata_t std_meta) {
    apply { }
}

control NewtonVerifyChecksum(inout headers_t hdr, inout metadata_t meta) {
    apply { }
}

control NewtonComputeChecksum(inout headers_t hdr, inout metadata_t meta) {
    apply { }
}

control NewtonDeparser(packet_out pkt, in headers_t hdr) {
    apply {
        pkt.emit(hdr.ethernet);
        pkt.emit(hdr.sp);
        pkt.emit(hdr.vlan0);
        pkt.emit(hdr.vlan1);
        pkt.emit(hdr.ipv4);
        pkt.emit(hdr.ipv6);
        pkt.emit(hdr.icmp);
        pkt.emit(hdr.tcp);
        pkt.emit(hdr.udp);
        pkt.emit(hdr.dns);
        pkt.emit(hdr.vxlan);
        pkt.emit(hdr.gre);
        pkt.emit(hdr.inner_ethernet);
        pkt.emit(hdr.inner_ipv4);
        pkt.emit(hdr.inner_tcp);
        pkt.emit(hdr.inner_udp);
        pkt.emit(hdr.inner_icmp);
    }
}

V1Switch(NewtonParser(),
         NewtonVerifyChecksum(),
         NewtonIngress(),
         NewtonEgress(),
         NewtonComputeChecksum(),
         NewtonDeparser()) main;
|};
  Buffer.contents b
