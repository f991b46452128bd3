(** The daemon's background replay driver.

    Holds a time-sorted packet array (from a generated trace or a
    pcap/pcapng capture via [lib/ingest]) and feeds it into
    [Deploy.process_packet] in bounded steps between socket events, so
    intents install and withdraw {e while traffic is flowing}.  Pacing
    is the ingest streamer's ({!Newton_ingest.Stream.pace}): [Asap]
    replays as fast as the event loop allows, [Realtime s] schedules
    each packet at its trace timestamp divided by the speedup.  The
    clock is a parameter ([~now]) so tests can drive replay
    deterministically. *)

open Newton_packet
module Stream = Newton_ingest.Stream

type t = {
  packets : Packet.t array;
  topo : Newton_network.Topo.t;
  pace : Stream.pace;
  source_desc : string;
  first_ts : float;
  mutable pos : int;
  mutable started_at : float option;
  sink : Newton_telemetry.Stats.sink;
}

let of_packets ?(pace = Stream.Asap) ~topo ~desc packets =
  {
    packets;
    topo;
    pace;
    source_desc = desc;
    first_ts = (if Array.length packets = 0 then 0. else Packet.ts packets.(0));
    pos = 0;
    started_at = None;
    sink = Newton_telemetry.Stats.create ();
  }

let of_trace ?pace ~topo ~desc trace =
  of_packets ?pace ~topo ~desc (Newton_trace.Gen.packets trace)

let length t = Array.length t.packets
let position t = t.pos
let finished t = t.pos >= Array.length t.packets
let source t = t.source_desc
let stats t = t.sink

(* Seconds of wall clock until the packet at [pos] is due; 0 when due
   now (or when pacing is Asap). *)
let due_in t ~now pos =
  match t.pace with
  | Stream.Asap -> 0.
  | Stream.Realtime speedup ->
      let started =
        match t.started_at with
        | Some s -> s
        | None ->
            t.started_at <- Some now;
            now
      in
      let rel = (Packet.ts t.packets.(pos) -. t.first_ts) /. speedup in
      Float.max 0. (started +. rel -. now)

let next_due_in t ~now =
  if finished t then None else Some (due_in t ~now t.pos)

let step t ~now ~budget deploy =
  let n = Array.length t.packets in
  let processed = ref 0 in
  while
    !processed < budget && t.pos < n && due_in t ~now t.pos <= 0.
  do
    let pkt = t.packets.(t.pos) in
    let src_host =
      Newton_network.Topo.host_of_ip t.topo (Packet.get pkt Field.Src_ip)
    in
    let dst_host =
      Newton_network.Topo.host_of_ip t.topo (Packet.get pkt Field.Dst_ip)
    in
    Newton_controller.Deploy.process_packet deploy ~src_host ~dst_host pkt;
    t.pos <- t.pos + 1;
    incr processed
  done;
  if !processed > 0 then
    Newton_telemetry.Stats.bump t.sink
      Newton_telemetry.Stats.Packets_processed !processed;
  !processed

let run_to_end t deploy =
  let rec go total =
    (* with ~now beyond any schedule, pacing never blocks *)
    let n = step t ~now:infinity ~budget:max_int deploy in
    if n = 0 then total else go (total + n)
  in
  go 0
