(** The global header-field set the PHV carries; Newton's K module
    selects (masked) subsets of these as operation keys. *)

type t =
  | Src_ip          (** IPv4 source address, 32 bits *)
  | Dst_ip          (** IPv4 destination address, 32 bits *)
  | Proto           (** IP protocol number, 8 bits *)
  | Src_port        (** L4 source port, 16 bits *)
  | Dst_port        (** L4 destination port, 16 bits *)
  | Tcp_flags       (** TCP control flags, 8 bits *)
  | Tcp_seq         (** TCP sequence number, 32 bits *)
  | Tcp_ack         (** TCP acknowledgement number, 32 bits *)
  | Pkt_len         (** total IP length in bytes, 16 bits *)
  | Payload_len     (** L4 payload length in bytes, 16 bits *)
  | Ttl             (** IP TTL, 8 bits *)
  | Dns_qr          (** DNS query/response bit, 1 bit *)
  | Dns_ancount     (** DNS answer count, 16 bits *)
  | Ingress_port    (** switch ingress port metadata, 9 bits *)
  | Ip_ver          (** IP version nibble (4 or 6), 4 bits *)
  | Icmp_type       (** ICMP/ICMPv6 message type, 8 bits *)
  | Icmp_code       (** ICMP/ICMPv6 message code, 8 bits *)
  | Tun_id          (** tunnel id: VXLAN VNI / GRE key (0 = not tunneled), 24 bits *)

(** Every field, in {!index} order. *)
val all : t list

val count : int

(** Dense index in [0, count). *)
val index : t -> int

(** @raise Invalid_argument outside [0, count). *)
val of_index : int -> t

(** Bit width of the field. *)
val width : t -> int

(** All-ones mask of the field's width. *)
val full_mask : t -> int

val to_string : t -> string
val pp : Format.formatter -> t -> unit

(** Inverse of {!to_string}.
    @raise Invalid_argument on an unknown name. *)
val of_string : string -> t

val equal : t -> t -> bool
val compare : t -> t -> int

(** TCP control-flag bit constants. *)
module Tcp_flag : sig
  val fin : int
  val syn : int
  val rst : int
  val psh : int
  val ack : int
  val syn_ack : int
end

(** Common IP protocol numbers. *)
module Protocol : sig
  val icmp : int
  val tcp : int
  val udp : int
  val gre : int
  val icmpv6 : int
end
