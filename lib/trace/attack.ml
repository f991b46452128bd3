(** Attack traffic injectors.

    Each of the nine evaluation queries (Table 2 of the paper) detects a
    specific behaviour; these injectors synthesise flows that exhibit it so
    every query has ground-truth positives in the trace.  Each injector
    returns the packets it adds plus the identity of the entity a correct
    query should report (victim or culprit IP). *)

open Newton_packet

type t =
  | Syn_flood of { victim : int; attackers : int; syns_per_attacker : int }
      (** many SYNs, no completing ACKs → Q6 (and inflates Q1) *)
  | Port_scan of { scanner : int; victim : int; ports : int }
      (** one source probing many destination ports → Q4 *)
  | Super_spreader of { source : int; fanout : int }
      (** one source contacting many distinct destinations → Q3 *)
  | Udp_ddos of { victim : int; attackers : int; pkts_per_attacker : int }
      (** high-rate UDP from many sources to one destination → Q5 *)
  | Ssh_brute of { victim : int; attackers : int; attempts_each : int }
      (** many short completed TCP connections to port 22 → Q2, Q7 *)
  | Slowloris of { victim : int; conns : int }
      (** many connections, few bytes each, to one web server → Q8 *)
  | Dns_orphan of { resolver : int; victims : int }
      (** DNS responses never followed by a TCP connection → Q9 *)
  | Icmp_flood of { victim : int; attackers : int; pkts_per_attacker : int }
      (** high-rate ICMP from many sources → Q13 *)
  | Reflection of { victim : int; reflectors : int; pkts_each : int }
      (** unsolicited SYN-ACKs bounced off reflectors → Q14 *)
  | Amplification of { victim : int; reflectors : int; pkts_each : int; port : int }
      (** amplified UDP responses from service port [port] (123 = NTP,
          1900 = SSDP) flooding one victim → Q15 *)
  | Icmp6_scan of { scanner : int; fanout : int }
      (** one source sweeping many hosts with ICMPv6 echo requests → Q16 *)
  | Tunnel_exfil of { src : int; dst : int; tun_id : int; pkts : int }
      (** bulk transfer hidden inside a VXLAN/GRE tunnel; the inner
          source is the culprit → Q17 *)

(** The IP address a correct detector should report for this attack. *)
let reported_host = function
  | Syn_flood { victim; _ } -> victim
  | Port_scan { victim; _ } -> victim
  | Super_spreader { source; _ } -> source
  | Udp_ddos { victim; _ } -> victim
  | Ssh_brute { victim; _ } -> victim
  | Slowloris { victim; _ } -> victim
  | Dns_orphan { victims; _ } -> victims (* count, not a host; see generate *)
  | Icmp_flood { victim; _ } -> victim
  | Reflection { victim; _ } -> victim
  | Amplification { victim; _ } -> victim
  | Icmp6_scan { scanner; _ } -> scanner
  | Tunnel_exfil { src; _ } -> src

let to_string = function
  | Syn_flood { victim; attackers; syns_per_attacker } ->
      Printf.sprintf "syn_flood(victim=%s, %d attackers x %d syns)"
        (Packet.ip_to_string victim) attackers syns_per_attacker
  | Port_scan { scanner; victim; ports } ->
      Printf.sprintf "port_scan(%s -> %s, %d ports)"
        (Packet.ip_to_string scanner) (Packet.ip_to_string victim) ports
  | Super_spreader { source; fanout } ->
      Printf.sprintf "super_spreader(%s, fanout=%d)" (Packet.ip_to_string source) fanout
  | Udp_ddos { victim; attackers; pkts_per_attacker } ->
      Printf.sprintf "udp_ddos(victim=%s, %d attackers x %d pkts)"
        (Packet.ip_to_string victim) attackers pkts_per_attacker
  | Ssh_brute { victim; attackers; attempts_each } ->
      Printf.sprintf "ssh_brute(victim=%s, %d attackers x %d attempts)"
        (Packet.ip_to_string victim) attackers attempts_each
  | Slowloris { victim; conns } ->
      Printf.sprintf "slowloris(victim=%s, %d conns)" (Packet.ip_to_string victim) conns
  | Dns_orphan { resolver; victims } ->
      Printf.sprintf "dns_orphan(resolver=%s, %d victims)"
        (Packet.ip_to_string resolver) victims
  | Icmp_flood { victim; attackers; pkts_per_attacker } ->
      Printf.sprintf "icmp_flood(victim=%s, %d attackers x %d pkts)"
        (Packet.ip_to_string victim) attackers pkts_per_attacker
  | Reflection { victim; reflectors; pkts_each } ->
      Printf.sprintf "reflection(victim=%s, %d reflectors x %d)"
        (Packet.ip_to_string victim) reflectors pkts_each
  | Amplification { victim; reflectors; pkts_each; port } ->
      Printf.sprintf "amplification(%s, victim=%s, %d reflectors x %d)"
        (match port with 123 -> "ntp" | 1900 -> "ssdp" | p -> string_of_int p)
        (Packet.ip_to_string victim) reflectors pkts_each
  | Icmp6_scan { scanner; fanout } ->
      Printf.sprintf "icmp6_scan(%s, fanout=%d)"
        (Packet.ip_to_string scanner) fanout
  | Tunnel_exfil { src; dst; tun_id; pkts } ->
      Printf.sprintf "tunnel_exfil(%s -> %s, vni=0x%x, %d pkts)"
        (Packet.ip_to_string src) (Packet.ip_to_string dst) tun_id pkts

(* Address-space carving: attack hosts live in 10.200.0.0/16 so they never
   collide with background hosts (10.0.0.0/16) or with each other. *)
let attack_base = 0x0AC80000 (* 10.200.0.0 *)

let host_of offset = attack_base + offset

(** Generate the packets of an attack, timestamps uniform over
    [0, duration). Returns packets in arbitrary order (the trace builder
    sorts globally). *)
let generate rng ~duration attack =
  let ts () = Newton_util.Prng.float_range rng duration in
  let pkts = ref [] in
  let emit p = pkts := p :: !pkts in
  let tcp = Field.Protocol.tcp and udp = Field.Protocol.udp in
  let flag = Field.Tcp_flag.syn in
  (match attack with
  | Syn_flood { victim; attackers; syns_per_attacker } ->
      for a = 0 to attackers - 1 do
        let src = host_of (0x1000 + a) in
        for s = 0 to syns_per_attacker - 1 do
          emit
            (Packet.make ~ts:(ts ()) ~src_ip:src ~dst_ip:victim ~proto:tcp
               ~src_port:(20000 + s) ~dst_port:80 ~tcp_flags:flag ~pkt_len:60 ())
        done
      done
  | Port_scan { scanner; victim; ports } ->
      for p = 0 to ports - 1 do
        emit
          (Packet.make ~ts:(ts ()) ~src_ip:scanner ~dst_ip:victim ~proto:tcp
             ~src_port:45000 ~dst_port:(1 + p) ~tcp_flags:flag ~pkt_len:60 ())
      done
  | Super_spreader { source; fanout } ->
      for d = 0 to fanout - 1 do
        emit
          (Packet.make ~ts:(ts ()) ~src_ip:source ~dst_ip:(host_of (0x8000 + d))
             ~proto:tcp ~src_port:(30000 + (d land 0xfff)) ~dst_port:80
             ~tcp_flags:flag ~pkt_len:60 ())
      done
  | Udp_ddos { victim; attackers; pkts_per_attacker } ->
      for a = 0 to attackers - 1 do
        let src = host_of (0x2000 + a) in
        for _ = 1 to pkts_per_attacker do
          emit
            (Packet.make ~ts:(ts ()) ~src_ip:src ~dst_ip:victim ~proto:udp
               ~src_port:(1024 + Newton_util.Prng.int rng 60000) ~dst_port:123
               ~pkt_len:512 ~payload_len:480 ())
        done
      done
  | Ssh_brute { victim; attackers; attempts_each } ->
      for a = 0 to attackers - 1 do
        let src = host_of (0x3000 + a) in
        for s = 0 to attempts_each - 1 do
          let t0 = ts () in
          let sport = 40000 + s in
          (* Complete, short connection: SYN / SYN-ACK / ACK / FIN / FIN. *)
          emit
            (Packet.make ~ts:t0 ~src_ip:src ~dst_ip:victim ~proto:tcp
               ~src_port:sport ~dst_port:22 ~tcp_flags:flag ~pkt_len:60 ());
          emit
            (Packet.make ~ts:(t0 +. 1e-4) ~src_ip:victim ~dst_ip:src ~proto:tcp
               ~src_port:22 ~dst_port:sport ~tcp_flags:Field.Tcp_flag.syn_ack
               ~pkt_len:60 ());
          emit
            (Packet.make ~ts:(t0 +. 2e-4) ~src_ip:src ~dst_ip:victim ~proto:tcp
               ~src_port:sport ~dst_port:22 ~tcp_flags:Field.Tcp_flag.ack
               ~pkt_len:60 ());
          emit
            (Packet.make ~ts:(t0 +. 3e-4) ~src_ip:src ~dst_ip:victim ~proto:tcp
               ~src_port:sport ~dst_port:22
               ~tcp_flags:(Field.Tcp_flag.fin lor Field.Tcp_flag.ack)
               ~pkt_len:60 ())
        done
      done
  | Slowloris { victim; conns } ->
      for c = 0 to conns - 1 do
        let src = host_of (0x4000 + (c / 16)) in
        let sport = 50000 + (c land 0x3fff) in
        let t0 = ts () in
        emit
          (Packet.make ~ts:t0 ~src_ip:src ~dst_ip:victim ~proto:tcp
             ~src_port:sport ~dst_port:80 ~tcp_flags:flag ~pkt_len:60 ());
        emit
          (Packet.make ~ts:(t0 +. 1e-4) ~src_ip:victim ~dst_ip:src ~proto:tcp
             ~src_port:80 ~dst_port:sport ~tcp_flags:Field.Tcp_flag.syn_ack
             ~pkt_len:60 ());
        emit
          (Packet.make ~ts:(t0 +. 2e-4) ~src_ip:src ~dst_ip:victim ~proto:tcp
             ~src_port:sport ~dst_port:80 ~tcp_flags:Field.Tcp_flag.ack
             ~pkt_len:60 ());
        (* A trickle of tiny payload segments: many connections, few bytes. *)
        emit
          (Packet.make ~ts:(t0 +. 3e-4) ~src_ip:src ~dst_ip:victim ~proto:tcp
             ~src_port:sport ~dst_port:80 ~tcp_flags:Field.Tcp_flag.psh
             ~pkt_len:61 ~payload_len:1 ())
      done
  | Dns_orphan { resolver; victims } ->
      for v = 0 to victims - 1 do
        let host = host_of (0x5000 + v) in
        let t0 = ts () in
        (* Query, then repeated responses (the client never accepts and
           the resolver retries); the host never opens the advertised TCP
           connection afterwards — exactly Q9's signature.  A well-behaved
           resolution sees exactly one response, so the retries are what
           make orphaned hosts cross Q9's threshold. *)
        emit
          (Packet.make ~ts:t0 ~src_ip:host ~dst_ip:resolver ~proto:udp
             ~src_port:(10000 + v) ~dst_port:53 ~pkt_len:80 ~payload_len:40 ());
        for retry = 1 to 3 do
          emit
            (Packet.make
               ~ts:(t0 +. (5e-4 *. float_of_int retry))
               ~src_ip:resolver ~dst_ip:host ~proto:udp ~src_port:53
               ~dst_port:(10000 + v) ~dns_qr:1 ~dns_ancount:1 ~pkt_len:120
               ~payload_len:80 ())
        done
      done
  | Icmp_flood { victim; attackers; pkts_per_attacker } ->
      for a = 0 to attackers - 1 do
        let src = host_of (0x6000 + a) in
        for _ = 1 to pkts_per_attacker do
          (* A classic 84-byte echo request: 20 IP + 8 ICMP + 56 payload,
             so the frame encodes/decodes to these exact fields. *)
          emit
            (Packet.make ~ts:(ts ()) ~src_ip:src ~dst_ip:victim
               ~proto:Field.Protocol.icmp ~icmp_type:8 ~pkt_len:84
               ~payload_len:56 ())
        done
      done
  | Reflection { victim; reflectors; pkts_each } ->
      (* The attacker spoofs the victim's address towards reflectors,
         which answer with SYN-ACKs the victim never solicited. *)
      for r = 0 to reflectors - 1 do
        let reflector = host_of (0x7000 + r) in
        for i = 1 to pkts_each do
          emit
            (Packet.make ~ts:(ts ()) ~src_ip:reflector ~dst_ip:victim ~proto:tcp
               ~src_port:80 ~dst_port:(40000 + i)
               ~tcp_flags:Field.Tcp_flag.syn_ack ~pkt_len:60 ())
        done
      done
  | Amplification { victim; reflectors; pkts_each; port } ->
      (* Spoofed requests bounce off open NTP/SSDP reflectors, which
         answer the victim with large responses from the service port. *)
      for r = 0 to reflectors - 1 do
        let reflector = host_of (0x9000 + r) in
        for _ = 1 to pkts_each do
          emit
            (Packet.make ~ts:(ts ()) ~src_ip:reflector ~dst_ip:victim
               ~proto:udp ~src_port:port
               ~dst_port:(1024 + Newton_util.Prng.int rng 60000)
               ~pkt_len:1028 ~payload_len:1000 ())
        done
      done
  | Icmp6_scan { scanner; fanout } ->
      for d = 0 to fanout - 1 do
        (* ICMPv6 echo request (type 128): 40 IPv6 + 8 ICMPv6 + 56. *)
        emit
          (Packet.make ~ts:(ts ()) ~src_ip:scanner ~dst_ip:(host_of (0xA000 + d))
             ~proto:Field.Protocol.icmpv6 ~ip_ver:6 ~icmp_type:128
             ~pkt_len:104 ~payload_len:56 ())
      done
  | Tunnel_exfil { src; dst; tun_id; pkts } ->
      for i = 1 to pkts do
        emit
          (Packet.make ~ts:(ts ()) ~src_ip:src ~dst_ip:dst ~proto:udp
             ~src_port:(40000 + (i land 0xFF)) ~dst_port:443 ~tun_id
             ~pkt_len:1228 ~payload_len:1200 ())
      done);
  !pkts

(** Default attack suite sized so each query has clear positives in
    every one of the paper's 100 ms windows (a 1-second trace has ten;
    per-window intensity must clear the catalog's default thresholds). *)
let default_suite =
  [
    Syn_flood { victim = host_of 1; attackers = 40; syns_per_attacker = 25 };
    Port_scan { scanner = host_of 2; victim = host_of 3; ports = 800 };
    Super_spreader { source = host_of 4; fanout = 1000 };
    Udp_ddos { victim = host_of 5; attackers = 80; pkts_per_attacker = 15 };
    Ssh_brute { victim = host_of 6; attackers = 15; attempts_each = 20 };
    Slowloris { victim = host_of 7; conns = 800 };
    Dns_orphan { resolver = host_of 8; victims = 150 };
  ]

(** The scenario-diversity attacks behind the extension queries
    Q15–Q17: IPv6, ICMPv6 and tunneled traffic.  Kept out of
    {!default_suite} so existing differential baselines stay stable. *)
let extras_suite =
  [
    Amplification { victim = host_of 9; reflectors = 50; pkts_each = 10; port = 123 };
    Amplification { victim = host_of 10; reflectors = 50; pkts_each = 10; port = 1900 };
    Icmp6_scan { scanner = host_of 11; fanout = 900 };
    Tunnel_exfil { src = host_of 12; dst = host_of 13; tun_id = 0xBEEF; pkts = 400 };
  ]

(** {!default_suite} plus {!extras_suite}: every injector but
    [Icmp_flood], which only the P4 coverage corpus
    ([Newton_p4sim.Corpus]) injects.  It stays out because the
    repository benchmark generates its [pcap_replay] capture from this
    suite, and adding an attack would change that capture. *)
let extended_suite = default_suite @ extras_suite
