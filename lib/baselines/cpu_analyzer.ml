(** The CPU-side analyzer of GPV-based *Flow systems.

    Reconstructs packets from grouped packet vectors and evaluates
    monitoring queries in software with the exact reference evaluator —
    the "dynamic queries on CPU" architecture the paper contrasts with
    Newton's on-data-plane execution (§2.2, §3.1).  Functionally it
    answers the same intents; the cost is that {e every packet's}
    features cross the wire and the CPU touches each one, which is what
    Fig. 12/13 quantify.

    GPVs arrive batched and out of order, so evaluation is windowed
    batch-style: ingest everything, then sort by timestamp and run the
    queries — how a Spark-like analyzer would process micro-batches. *)

open Newton_packet

type t = {
  queries : Newton_query.Ast.t list;
  mutable packets : Packet.t list; (* reconstructed, unsorted *)
  mutable cpu_packets : int;       (** per-packet records the CPU touched *)
  mutable gpvs : int;
}

let create queries = { queries; packets = []; cpu_packets = 0; gpvs = 0 }

let cpu_packets t = t.cpu_packets
let gpvs t = t.gpvs

(* A GPV feature only carries (ts, len, payload, flags) + the flow key;
   that is enough for every query over 5-tuple/flags/length fields. *)
let reconstruct (key : Fivetuple.t) (f : Starflow.feature) =
  Packet.make ~ts:f.Starflow.f_ts ~src_ip:key.Fivetuple.src_ip
    ~dst_ip:key.Fivetuple.dst_ip ~proto:key.Fivetuple.proto
    ~src_port:key.Fivetuple.src_port ~dst_port:key.Fivetuple.dst_port
    ~tcp_flags:f.Starflow.f_flags ~pkt_len:f.Starflow.f_len
    ~payload_len:f.Starflow.f_payload ()

(** Ingest one grouped packet vector. *)
let ingest t (g : Starflow.gpv) =
  t.gpvs <- t.gpvs + 1;
  List.iter
    (fun f ->
      t.cpu_packets <- t.cpu_packets + 1;
      t.packets <- reconstruct g.Starflow.g_key f :: t.packets)
    g.Starflow.g_features

(** Evaluate all queries over everything ingested so far. *)
let results t =
  let packets = Array.of_list t.packets in
  Array.sort Packet.compare_ts packets;
  List.concat_map
    (fun q -> Newton_query.Ref_eval.evaluate q packets)
    t.queries

(** End-to-end convenience: run [trace] through a *Flow exporter wired
    into a fresh analyzer, returning (analyzer, exporter). *)
let of_trace ?cache_size ?gpv_len queries trace =
  let t = create queries in
  let sf = Starflow.create ?cache_size ?gpv_len ~on_gpv:(ingest t) () in
  Newton_trace.Gen.iter (Starflow.process sf) trace;
  Starflow.finish sf;
  (t, sf)
