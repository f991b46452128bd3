(** Raw captured frames → {!Newton_packet.Packet.t}: Ethernet
    (optionally 802.1Q/QinQ-tagged) → IPv4/IPv6 → TCP/UDP/ICMP/ICMPv6,
    DNS header bits on UDP port 53, and one level of GRE/VXLAN
    decapsulation (intents see the {e inner} 5-tuple; [Tun_id] carries
    the VNI/key).  Unparseable traffic is a counted skip, never an
    exception.  The field mapping is documented in docs/INGEST.md. *)

open Newton_packet

type skip =
  | Non_ip      (** not Ethernet/IP: ARP, other link types, >2 VLAN tags *)
  | Truncated   (** capture ends before the headers do *)
  | Fragment    (** non-first IP fragment: no L4 header to decode *)
  | Malformed   (** internally inconsistent headers (lengths/flags lie) *)

type result = Decoded of Packet.t | Skipped of skip

val ethertype_ipv4 : int
val ethertype_ipv6 : int
val ethertype_vlan : int

(** The IANA VXLAN UDP destination port (4789). *)
val vxlan_port : int

(** [frame_at ~linktype ~ts data off len] decodes the captured frame
    held in [data] from [off], [len] bytes long, into a packet stamped
    [ts], without copying it: every bounds check is against
    [off + len], so the bytes around the frame are never read.  Any
    link type but Ethernet skips as [Non_ip].  Requires
    [0 <= off] and [off + len <= Bytes.length data]. *)
val frame_at : linktype:int -> ts:float -> bytes -> int -> int -> result

(** [frame data] is [frame_at data 0 (Bytes.length data)];
    [linktype] defaults to Ethernet. *)
val frame : ?linktype:int -> ts:float -> bytes -> result

val skip_to_string : skip -> string
