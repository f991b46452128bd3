(** Trace generation: background traffic + injected attacks.

    Produces a time-sorted packet array from a {!Profile}, a PRNG seed and
    an attack list.  Background flows draw their endpoints from a Zipfian
    popularity distribution over the host pool and their sizes from a
    Pareto distribution — the heavy-tailed mix that makes heavy-hitter /
    sketch experiments behave like real backbone traces. *)

open Newton_packet

(* Background hosts live in 10.0.0.0/16, disjoint from Attack hosts. *)
let background_base = 0x0A000000

type t = {
  packets : Packet.t array;
  profile : Profile.t;
  attacks : Attack.t list;
}

let packets t = t.packets
let length t = Array.length t.packets
let profile t = t.profile
let attacks t = t.attacks

let host_pool profile =
  Array.init profile.Profile.hosts (fun i -> background_base + i + 1)

(* Emit the packets of one background TCP flow. *)
let tcp_flow rng profile ~src ~dst ~sport ~dport ~npkts ~start acc =
  let tcp = Field.Protocol.tcp in
  let dt = ref 0.0 in
  let step () =
    dt := !dt +. Newton_util.Prng.exponential rng 2000.0;
    start +. !dt
  in
  let acc = ref acc in
  let emit p = acc := p :: !acc in
  emit
    (Packet.make ~ts:start ~src_ip:src ~dst_ip:dst ~proto:tcp ~src_port:sport
       ~dst_port:dport ~tcp_flags:Field.Tcp_flag.syn ~pkt_len:60 ());
  emit
    (Packet.make ~ts:(step ()) ~src_ip:dst ~dst_ip:src ~proto:tcp
       ~src_port:dport ~dst_port:sport ~tcp_flags:Field.Tcp_flag.syn_ack
       ~pkt_len:60 ());
  emit
    (Packet.make ~ts:(step ()) ~src_ip:src ~dst_ip:dst ~proto:tcp
       ~src_port:sport ~dst_port:dport ~tcp_flags:Field.Tcp_flag.ack
       ~pkt_len:52 ());
  for _ = 1 to npkts do
    let fwd = Newton_util.Prng.bernoulli rng 0.6 in
    let len = 64 + Newton_util.Prng.int rng 1380 in
    let sip, dip, sp, dp =
      if fwd then (src, dst, sport, dport) else (dst, src, dport, sport)
    in
    emit
      (Packet.make ~ts:(step ()) ~src_ip:sip ~dst_ip:dip ~proto:tcp
         ~src_port:sp ~dst_port:dp ~tcp_flags:Field.Tcp_flag.ack ~pkt_len:len
         ~payload_len:(len - 52) ())
  done;
  if Newton_util.Prng.bernoulli rng profile.Profile.complete_fraction then begin
    emit
      (Packet.make ~ts:(step ()) ~src_ip:src ~dst_ip:dst ~proto:tcp
         ~src_port:sport ~dst_port:dport
         ~tcp_flags:(Field.Tcp_flag.fin lor Field.Tcp_flag.ack) ~pkt_len:52 ());
    emit
      (Packet.make ~ts:(step ()) ~src_ip:dst ~dst_ip:src ~proto:tcp
         ~src_port:dport ~dst_port:sport
         ~tcp_flags:(Field.Tcp_flag.fin lor Field.Tcp_flag.ack) ~pkt_len:52 ())
  end;
  !acc

(* One background UDP flow; DNS flows get a query/response pair, and most
   are followed by a TCP connection to the resolved host (so only orphaned
   DNS — the Q9 injector — looks anomalous). *)
let udp_flow rng profile ~src ~dst ~sport ~npkts ~start ~is_dns acc =
  let udp = Field.Protocol.udp in
  let acc = ref acc in
  let emit p = acc := p :: !acc in
  if is_dns then begin
    emit
      (Packet.make ~ts:start ~src_ip:src ~dst_ip:dst ~proto:udp ~src_port:sport
         ~dst_port:53 ~pkt_len:80 ~payload_len:40 ());
    emit
      (Packet.make ~ts:(start +. 5e-4) ~src_ip:dst ~dst_ip:src ~proto:udp
         ~src_port:53 ~dst_port:sport ~dns_qr:1 ~dns_ancount:1 ~pkt_len:140
         ~payload_len:100 ());
    (* Follow-up TCP connection, as a well-behaved client would make. *)
    emit
      (Packet.make ~ts:(start +. 2e-3) ~src_ip:src
         ~dst_ip:(background_base + 0xF000 + (sport land 0xff)) ~proto:Field.Protocol.tcp
         ~src_port:(sport + 1) ~dst_port:80 ~tcp_flags:Field.Tcp_flag.syn
         ~pkt_len:60 ())
  end
  else begin
    let dt = ref 0.0 in
    for _ = 1 to max 1 npkts do
      dt := !dt +. Newton_util.Prng.exponential rng 1000.0;
      let len = 64 + Newton_util.Prng.int rng 1200 in
      emit
        (Packet.make ~ts:(start +. !dt) ~src_ip:src ~dst_ip:dst ~proto:udp
           ~src_port:sport ~dst_port:(1024 + Newton_util.Prng.int rng 8000)
           ~pkt_len:len ~payload_len:(len - 28) ())
    done
  end;
  ignore profile;
  !acc

(* Bursty flow-arrival sampler: the duration splits into epochs whose
   weights skew with [burstiness]; a flow picks an epoch by weight and a
   uniform offset inside it.  burstiness = 0 degenerates to uniform. *)
let start_sampler rng (profile : Profile.t) =
  if profile.Profile.burstiness <= 0.0 then
    fun () -> Newton_util.Prng.float_range rng profile.Profile.duration
  else begin
    let epochs = 10 in
    (* Zipf-skewed epoch weights (rank shuffled per seed), mixed with a
       uniform floor: burstiness b puts weight (1-b) on the floor and b
       on the skew, so b = 0.9 concentrates ~40% of arrivals in the
       hottest epoch. *)
    let ranks = Array.init epochs (fun i -> i + 1) in
    Newton_util.Prng.shuffle rng ranks;
    let weights =
      Array.init epochs (fun i ->
          (1.0 -. profile.Profile.burstiness)
          +. (profile.Profile.burstiness
             *. (1.0 /. (float_of_int ranks.(i) ** 2.0))))
    in
    let total = Array.fold_left ( +. ) 0.0 weights in
    let cdf = Array.make epochs 0.0 in
    let acc = ref 0.0 in
    Array.iteri
      (fun i w ->
        acc := !acc +. (w /. total);
        cdf.(i) <- !acc)
      weights;
    let epoch_len = profile.Profile.duration /. float_of_int epochs in
    fun () ->
      let u = Newton_util.Prng.float rng in
      let rec pick i = if i >= epochs - 1 || cdf.(i) >= u then i else pick (i + 1) in
      let e = pick 0 in
      (float_of_int e *. epoch_len) +. Newton_util.Prng.float_range rng epoch_len
  end

(** Generate a trace. [seed] makes generation deterministic; the same
    (profile, seed, attacks) triple always yields the identical trace, so
    different monitoring systems can be replayed over equal inputs. *)
let generate ?(attacks = []) ~seed (profile : Profile.t) =
  let rng = Newton_util.Prng.of_int seed in
  let hosts = host_pool profile in
  let zipf = Newton_util.Zipf.create ~n:profile.hosts ~exponent:profile.zipf_exponent in
  let sample_start = start_sampler rng profile in
  let acc = ref [] in
  for _ = 1 to profile.flows do
    let src = hosts.(Newton_util.Zipf.sample zipf rng - 1) in
    let dst = hosts.(Newton_util.Zipf.sample zipf rng - 1) in
    let dst = if dst = src then hosts.((src - background_base) mod profile.hosts) else dst in
    let sport = 1024 + Newton_util.Prng.int rng 60000 in
    let start = sample_start () in
    let npkts =
      int_of_float
        (Newton_util.Prng.pareto rng ~alpha:profile.pareto_alpha
           ~xm:(profile.mean_flow_pkts *. (profile.pareto_alpha -. 1.0) /. profile.pareto_alpha))
      |> max 1 |> min 4096
    in
    if Newton_util.Prng.bernoulli rng profile.tcp_fraction then
      let dport = Newton_util.Prng.choice rng [| 80; 443; 443; 8080; 22; 25 |] in
      acc := tcp_flow rng profile ~src ~dst ~sport ~dport ~npkts ~start !acc
    else
      let is_dns = Newton_util.Prng.bernoulli rng profile.dns_fraction in
      acc := udp_flow rng profile ~src ~dst ~sport ~npkts ~start ~is_dns !acc
  done;
  List.iter
    (fun a -> acc := List.rev_append (Attack.generate rng ~duration:profile.duration a) !acc)
    attacks;
  let packets = Array.of_list !acc in
  Array.sort (fun a b -> Float.compare (Packet.ts a) (Packet.ts b)) packets;
  { packets; profile; attacks }

(** Wrap a raw packet array (e.g. one loaded from disk) as a trace.
    Packets must already be time-sorted; the profile records only the
    given name. *)
let of_packets ~name packets =
  {
    packets;
    profile = { Profile.caida_like with Profile.name; flows = 0 };
    attacks = [];
  }

let iter f t = Array.iter f t.packets
let fold f init t = Array.fold_left f init t.packets

(** Total bytes on the wire, for bandwidth-overhead ratios. *)
let total_bytes t =
  Array.fold_left (fun acc p -> acc + Packet.get p Field.Pkt_len) 0 t.packets
