(** Tests for Newton_trace: profiles, attack injectors, trace
    generation. *)

open Newton_packet
open Newton_trace

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* ---------------- Profile ---------------- *)

let test_profiles_sane () =
  List.iter
    (fun (p : Profile.t) ->
      checkb "tcp fraction in [0,1]" true (p.tcp_fraction >= 0.0 && p.tcp_fraction <= 1.0);
      checkb "positive flows" true (p.flows > 0);
      checkb "positive hosts" true (p.hosts > 0))
    [ Profile.caida_like; Profile.mawi_like ]

let test_profile_scale () =
  let p = Profile.scale Profile.caida_like 0.5 in
  checki "half flows" (Profile.caida_like.flows / 2) p.Profile.flows

let test_profile_with_flows () =
  checki "override flows" 123 (Profile.with_flows Profile.caida_like 123).Profile.flows

(* ---------------- Generation ---------------- *)

let small_profile = Profile.with_flows Profile.caida_like 300

let test_gen_deterministic () =
  let a = Gen.generate ~seed:1 small_profile in
  let b = Gen.generate ~seed:1 small_profile in
  checki "same packet count" (Gen.length a) (Gen.length b);
  Array.iteri
    (fun i p ->
      checkb "identical packets" true
        (Packet.to_string p = Packet.to_string (Gen.packets b).(i)))
    (Gen.packets a)

let test_gen_seeds_differ () =
  let a = Gen.generate ~seed:1 small_profile in
  let b = Gen.generate ~seed:2 small_profile in
  checkb "different seeds give different traces" true
    (Gen.length a <> Gen.length b
    || Packet.to_string (Gen.packets a).(0) <> Packet.to_string (Gen.packets b).(0))

let test_gen_sorted_by_time () =
  let t = Gen.generate ~seed:3 small_profile in
  let prev = ref neg_infinity in
  Gen.iter
    (fun p ->
      checkb "non-decreasing timestamps" true (Packet.ts p >= !prev);
      prev := Packet.ts p)
    t

let test_gen_scales_with_flows () =
  let small = Gen.generate ~seed:4 (Profile.with_flows Profile.caida_like 100) in
  let large = Gen.generate ~seed:4 (Profile.with_flows Profile.caida_like 1000) in
  checkb "more flows, more packets" true (Gen.length large > Gen.length small * 4)

let test_gen_protocol_mix () =
  let t = Gen.generate ~seed:5 (Profile.with_flows Profile.caida_like 2000) in
  let tcp = ref 0 and total = ref 0 in
  Gen.iter
    (fun p ->
      incr total;
      if Packet.is_tcp p then incr tcp)
    t;
  let frac = float_of_int !tcp /. float_of_int !total in
  (* caida-like is TCP-dominated; TCP flows also emit more packets. *)
  checkb "tcp-dominated" true (frac > 0.6)

let test_gen_total_bytes_positive () =
  let t = Gen.generate ~seed:6 small_profile in
  checkb "bytes accumulate" true (Gen.total_bytes t > Gen.length t * 40)

let test_gen_fold () =
  let t = Gen.generate ~seed:7 small_profile in
  let n = Gen.fold (fun acc _ -> acc + 1) 0 t in
  checki "fold visits all" (Gen.length t) n

let epoch_shares trace epochs =
  let counts = Array.make epochs 0 in
  let dur = (Gen.profile trace).Profile.duration in
  Gen.iter
    (fun p ->
      let e =
        min (epochs - 1)
          (int_of_float (Packet.ts p /. dur *. float_of_int epochs))
      in
      counts.(e) <- counts.(e) + 1)
    trace;
  let total = float_of_int (Gen.length trace) in
  Array.map (fun c -> float_of_int c /. total) counts

let test_burstiness_zero_is_uniform () =
  let t = Gen.generate ~seed:2 (Profile.with_flows Profile.caida_like 2000) in
  let shares = epoch_shares t 10 in
  Array.iter
    (fun s -> checkb "each epoch near 10%" true (s > 0.05 && s < 0.2))
    shares

let test_burstiness_concentrates_arrivals () =
  let p =
    Profile.with_burstiness (Profile.with_flows Profile.caida_like 2000) 0.9
  in
  let t = Gen.generate ~seed:2 p in
  let shares = epoch_shares t 10 in
  let peak = Array.fold_left max 0.0 shares in
  checkb "peak epoch well above uniform" true (peak > 0.2)

let test_burstiness_clamped () =
  let p = Profile.with_burstiness Profile.caida_like 5.0 in
  checkb "clamped" true (p.Profile.burstiness <= 0.95);
  let q = Profile.with_burstiness Profile.caida_like (-1.0) in
  checkb "clamped below" true (q.Profile.burstiness = 0.0)

let test_bursty_trace_still_monitorable () =
  let p =
    Profile.with_burstiness (Profile.with_flows Profile.caida_like 600) 0.8
  in
  let t = Gen.generate ~attacks:Attack.default_suite ~seed:3 p in
  let d = Newton.Device.create () in
  let _ = Newton.Device.add_query d (Newton_query.Catalog.q1 ()) in
  Newton.Device.process_trace d t;
  checkb "detection still works under bursts" true
    (Newton.Device.message_count d > 0)

(* ---------------- Attacks ---------------- *)

let gen_attack a =
  let rng = Newton_util.Prng.of_int 9 in
  Attack.generate rng ~duration:1.0 a

let test_syn_flood_signature () =
  let victim = Attack.host_of 1 in
  let pkts = gen_attack (Attack.Syn_flood { victim; attackers = 5; syns_per_attacker = 4 }) in
  checki "5*4 packets" 20 (List.length pkts);
  List.iter
    (fun p ->
      checkb "all SYN" true (Packet.is_syn p);
      checki "to victim" victim (Packet.get p Field.Dst_ip))
    pkts

let test_port_scan_signature () =
  let pkts =
    gen_attack (Attack.Port_scan { scanner = Attack.host_of 2; victim = Attack.host_of 3; ports = 50 })
  in
  checki "one probe per port" 50 (List.length pkts);
  let ports = List.map (fun p -> Packet.get p Field.Dst_port) pkts in
  checki "all ports distinct" 50 (List.length (List.sort_uniq compare ports))

let test_super_spreader_signature () =
  let src = Attack.host_of 4 in
  let pkts = gen_attack (Attack.Super_spreader { source = src; fanout = 30 }) in
  let dsts = List.map (fun p -> Packet.get p Field.Dst_ip) pkts in
  checki "30 distinct destinations" 30 (List.length (List.sort_uniq compare dsts));
  List.iter (fun p -> checki "same source" src (Packet.get p Field.Src_ip)) pkts

let test_udp_ddos_signature () =
  let victim = Attack.host_of 5 in
  let pkts = gen_attack (Attack.Udp_ddos { victim; attackers = 6; pkts_per_attacker = 3 }) in
  checki "6*3 packets" 18 (List.length pkts);
  List.iter (fun p -> checkb "all UDP" true (Packet.is_udp p)) pkts;
  let srcs = List.map (fun p -> Packet.get p Field.Src_ip) pkts in
  checki "6 distinct sources" 6 (List.length (List.sort_uniq compare srcs))

let test_ssh_brute_completes_connections () =
  let victim = Attack.host_of 6 in
  let pkts = gen_attack (Attack.Ssh_brute { victim; attackers = 2; attempts_each = 3 }) in
  checki "4 packets per attempt" 24 (List.length pkts);
  let fins =
    List.filter (fun p -> Packet.get p Field.Tcp_flags land Field.Tcp_flag.fin <> 0) pkts
  in
  checki "one FIN per attempt" 6 (List.length fins);
  List.iter
    (fun p ->
      let to_v = Packet.get p Field.Dst_ip = victim && Packet.get p Field.Dst_port = 22 in
      let from_v = Packet.get p Field.Src_ip = victim && Packet.get p Field.Src_port = 22 in
      checkb "port 22 traffic" true (to_v || from_v))
    pkts

let test_slowloris_low_bytes () =
  let pkts = gen_attack (Attack.Slowloris { victim = Attack.host_of 7; conns = 10 }) in
  checki "4 packets per conn" 40 (List.length pkts);
  let payload = List.fold_left (fun acc p -> acc + Packet.get p Field.Payload_len) 0 pkts in
  checkb "tiny payloads" true (payload <= 10 * 2)

let test_dns_orphan_no_tcp () =
  let pkts = gen_attack (Attack.Dns_orphan { resolver = Attack.host_of 8; victims = 5 }) in
  checkb "no TCP follows the responses" true (List.for_all (fun p -> not (Packet.is_tcp p)) pkts);
  let responses = List.filter (fun p -> Packet.get p Field.Dns_qr = 1) pkts in
  checki "three responses per victim (retries)" 15 (List.length responses)

let test_attack_hosts_disjoint_from_background () =
  let t =
    Gen.generate ~seed:10 ~attacks:Attack.default_suite
      (Profile.with_flows Profile.caida_like 200)
  in
  (* Background hosts live in 10.0.x.x, attack infrastructure in 10.200.x.x. *)
  checkb "both address spaces present" true
    (Gen.fold
       (fun acc p -> acc || Packet.get p Field.Src_ip land 0xFFFF0000 = 0x0AC80000)
       false t)

let test_reported_host () =
  let victim = Attack.host_of 1 in
  checki "syn flood reports victim" victim
    (Attack.reported_host (Attack.Syn_flood { victim; attackers = 1; syns_per_attacker = 1 }))

let test_attack_to_string () =
  List.iter
    (fun a -> checkb "describable" true (String.length (Attack.to_string a) > 0))
    Attack.default_suite

let test_timestamps_within_duration () =
  let pkts = gen_attack (Attack.Super_spreader { source = Attack.host_of 4; fanout = 100 }) in
  List.iter
    (fun p -> checkb "ts in [0, duration+eps)" true (Packet.ts p >= 0.0 && Packet.ts p < 1.1))
    pkts

let suite =
  [
    ("profiles sane", `Quick, test_profiles_sane);
    ("profile scale", `Quick, test_profile_scale);
    ("profile with_flows", `Quick, test_profile_with_flows);
    ("gen deterministic", `Quick, test_gen_deterministic);
    ("gen seeds differ", `Quick, test_gen_seeds_differ);
    ("gen sorted by time", `Quick, test_gen_sorted_by_time);
    ("gen scales with flows", `Quick, test_gen_scales_with_flows);
    ("gen protocol mix", `Quick, test_gen_protocol_mix);
    ("gen total bytes", `Quick, test_gen_total_bytes_positive);
    ("gen fold", `Quick, test_gen_fold);
    ("burstiness zero is uniform", `Quick, test_burstiness_zero_is_uniform);
    ("burstiness concentrates arrivals", `Quick, test_burstiness_concentrates_arrivals);
    ("burstiness clamped", `Quick, test_burstiness_clamped);
    ("bursty trace still monitorable", `Quick, test_bursty_trace_still_monitorable);
    ("syn flood signature", `Quick, test_syn_flood_signature);
    ("port scan signature", `Quick, test_port_scan_signature);
    ("super spreader signature", `Quick, test_super_spreader_signature);
    ("udp ddos signature", `Quick, test_udp_ddos_signature);
    ("ssh brute completes connections", `Quick, test_ssh_brute_completes_connections);
    ("slowloris low bytes", `Quick, test_slowloris_low_bytes);
    ("dns orphan no tcp", `Quick, test_dns_orphan_no_tcp);
    ("attack hosts disjoint", `Quick, test_attack_hosts_disjoint_from_background);
    ("reported host", `Quick, test_reported_host);
    ("attack to_string", `Quick, test_attack_to_string);
    ("timestamps within duration", `Quick, test_timestamps_within_duration);
  ]
