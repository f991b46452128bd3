(** Attack traffic injectors: one per detection intent of the paper's
    Table 2 queries, so every query has ground-truth positives. *)

open Newton_packet

type t =
  | Syn_flood of { victim : int; attackers : int; syns_per_attacker : int }
  | Port_scan of { scanner : int; victim : int; ports : int }
  | Super_spreader of { source : int; fanout : int }
  | Udp_ddos of { victim : int; attackers : int; pkts_per_attacker : int }
  | Ssh_brute of { victim : int; attackers : int; attempts_each : int }
  | Slowloris of { victim : int; conns : int }
  | Dns_orphan of { resolver : int; victims : int }
  | Icmp_flood of { victim : int; attackers : int; pkts_per_attacker : int }
  | Reflection of { victim : int; reflectors : int; pkts_each : int }
  | Amplification of { victim : int; reflectors : int; pkts_each : int; port : int }
  | Icmp6_scan of { scanner : int; fanout : int }
  | Tunnel_exfil of { src : int; dst : int; tun_id : int; pkts : int }

(** The IP a correct detector should report. *)
val reported_host : t -> int

val to_string : t -> string

(** Attack infrastructure addresses live in 10.200.0.0/16, disjoint
    from background hosts. *)
val host_of : int -> int

(** Generate the attack's packets with timestamps uniform over
    [0, duration); unsorted (the trace builder sorts globally). *)
val generate : Newton_util.Prng.t -> duration:float -> t -> Packet.t list

(** One of each attack, sized so every catalog query has clear
    positives in each 100 ms window of a 1-second trace. *)
val default_suite : t list

(** {!default_suite} plus the IPv6/ICMPv6/tunnel attacks behind
    extension queries Q15–Q17 (NTP + SSDP amplification, ICMPv6 sweep,
    tunneled exfiltration); kept apart so {!default_suite} traces stay
    byte-stable.  It leaves out [Icmp_flood] (Q13), which only the P4
    coverage corpus injects: the repository benchmark's [pcap_replay]
    capture is generated from this suite and must not change. *)
val extended_suite : t list
