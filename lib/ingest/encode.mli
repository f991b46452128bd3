(** {!Newton_packet.Packet.t} → Ethernet frame bytes — the inverse of
    {!Decode}, so exported synthetic traces open in tcpdump / Wireshark
    and re-ingest to the exact original field vectors.  Non-zero
    [Ingress_port] becomes an 802.1Q VLAN id on the outermost header;
    [Ip_ver] = 6 emits IPv6 with [::a.b.c.d] addresses (XOR-fold
    inverse); ICMP/ICMPv6 packets carry type/code in an 8-byte header;
    UDP port-53 packets get a real DNS header; a non-zero [Tun_id]
    wraps the packet in VXLAN (default) or GRE; IP/TCP/UDP/ICMP
    checksums are computed; payload bytes are zero.  See docs/INGEST.md
    for the full mapping. *)

open Newton_packet

(** Encode one packet as a full (untruncated) Ethernet frame.  When
    [Tun_id] is non-zero the packet is encapsulated ([`Vxlan] by
    default): outer endpoints are synthesized from the tunnel id and
    {!Decode} recovers the inner 5-tuple. *)
val frame : ?tunnel:[ `Vxlan | `Gre ] -> Packet.t -> bytes
