(** The global header-field set.

    Newton's key-selection module (K) operates over a fixed, global set of
    header fields carried in the PHV (packet header vector).  Each query
    primitive selects a subset of these fields — possibly bit-masked, e.g.
    to take an IP prefix — as its operation keys.  This module enumerates
    the fields our pipeline parses, mirroring the fields the Sonata query
    repository uses (5-tuple, TCP flags/seq, lengths, DNS metadata). *)

type t =
  | Src_ip          (** IPv4 source address, 32 bits *)
  | Dst_ip          (** IPv4 destination address, 32 bits *)
  | Proto           (** IP protocol number, 8 bits *)
  | Src_port        (** L4 source port, 16 bits *)
  | Dst_port        (** L4 destination port, 16 bits *)
  | Tcp_flags       (** TCP control flags, 8 bits (CWR..FIN) *)
  | Tcp_seq         (** TCP sequence number, 32 bits *)
  | Tcp_ack         (** TCP acknowledgement number, 32 bits *)
  | Pkt_len         (** total IP length in bytes, 16 bits *)
  | Payload_len     (** L4 payload length in bytes, 16 bits *)
  | Ttl             (** IP TTL, 8 bits *)
  | Dns_qr          (** DNS query/response bit (1 = response), 1 bit *)
  | Dns_ancount     (** DNS answer count, 16 bits *)
  | Ingress_port    (** switch ingress port (metadata), 9 bits *)
  | Ip_ver          (** IP version nibble (4 or 6), 4 bits *)
  | Icmp_type       (** ICMP/ICMPv6 message type, 8 bits *)
  | Icmp_code       (** ICMP/ICMPv6 message code, 8 bits *)
  | Tun_id          (** tunnel id: VXLAN VNI / GRE key (0 = not tunneled), 24 bits *)

let all =
  [ Src_ip; Dst_ip; Proto; Src_port; Dst_port; Tcp_flags; Tcp_seq; Tcp_ack;
    Pkt_len; Payload_len; Ttl; Dns_qr; Dns_ancount; Ingress_port;
    Ip_ver; Icmp_type; Icmp_code; Tun_id ]

let count = List.length all

(* Constant constructors are the ints 0, 1, ... in declaration order,
   so the index is the value itself and a call site compiles to nothing. *)
external index : t -> int = "%identity"

let of_index = function
  | 0 -> Src_ip | 1 -> Dst_ip | 2 -> Proto | 3 -> Src_port | 4 -> Dst_port
  | 5 -> Tcp_flags | 6 -> Tcp_seq | 7 -> Tcp_ack | 8 -> Pkt_len
  | 9 -> Payload_len | 10 -> Ttl | 11 -> Dns_qr | 12 -> Dns_ancount
  | 13 -> Ingress_port | 14 -> Ip_ver | 15 -> Icmp_type | 16 -> Icmp_code
  | 17 -> Tun_id
  | i -> invalid_arg (Printf.sprintf "Field.of_index: %d" i)

(** Bit width of each field, used for PHV accounting and full masks. *)
let width = function
  | Src_ip | Dst_ip | Tcp_seq | Tcp_ack -> 32
  | Tun_id -> 24
  | Src_port | Dst_port | Pkt_len | Payload_len | Dns_ancount -> 16
  | Proto | Tcp_flags | Ttl | Icmp_type | Icmp_code -> 8
  | Ingress_port -> 9
  | Ip_ver -> 4
  | Dns_qr -> 1

(** All-ones mask for the field's width. *)
let full_mask f = (1 lsl width f) - 1

let to_string = function
  | Src_ip -> "sip" | Dst_ip -> "dip" | Proto -> "proto"
  | Src_port -> "sport" | Dst_port -> "dport" | Tcp_flags -> "tcp.flags"
  | Tcp_seq -> "tcp.seq" | Tcp_ack -> "tcp.ack" | Pkt_len -> "len"
  | Payload_len -> "payload_len" | Ttl -> "ttl" | Dns_qr -> "dns.qr"
  | Dns_ancount -> "dns.ancount" | Ingress_port -> "ig_port"
  | Ip_ver -> "ip.ver" | Icmp_type -> "icmp.type" | Icmp_code -> "icmp.code"
  | Tun_id -> "tun.id"

let pp fmt f = Format.pp_print_string fmt (to_string f)

let of_string = function
  | "sip" -> Src_ip | "dip" -> Dst_ip | "proto" -> Proto
  | "sport" -> Src_port | "dport" -> Dst_port | "tcp.flags" -> Tcp_flags
  | "tcp.seq" -> Tcp_seq | "tcp.ack" -> Tcp_ack | "len" -> Pkt_len
  | "payload_len" -> Payload_len | "ttl" -> Ttl | "dns.qr" -> Dns_qr
  | "dns.ancount" -> Dns_ancount | "ig_port" -> Ingress_port
  | "ip.ver" -> Ip_ver | "icmp.type" -> Icmp_type | "icmp.code" -> Icmp_code
  | "tun.id" -> Tun_id
  | s -> invalid_arg ("Field.of_string: unknown field " ^ s)

let equal (a : t) (b : t) = a = b
let compare (a : t) (b : t) = compare (index a) (index b)

(** TCP flag bit positions, for building flag constants in queries. *)
module Tcp_flag = struct
  let fin = 0x01
  let syn = 0x02
  let rst = 0x04
  let psh = 0x08
  let ack = 0x10
  let syn_ack = syn lor ack
end

(** Common protocol numbers. *)
module Protocol = struct
  let icmp = 1
  let tcp = 6
  let udp = 17
  let gre = 47
  let icmpv6 = 58
end
