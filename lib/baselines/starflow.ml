(** *Flow export model (Sonchack et al., ATC'18).

    *Flow exports {e grouped packet vectors} (GPVs): the data plane
    buffers per-packet features (timestamp, size, payload, TCP flags) in
    a per-flow cache line and ships the vector to a software analyzer
    whenever it fills ([gpv_len] packets) or the flow is evicted.  All
    query logic runs on CPU over the GPV stream, which makes queries
    fully dynamic but pushes per-packet data off the switch — the
    paper's example: 8 CPU cores to keep up with one 640 Gbps switch.

    Fig. 12/13 compare only the export volume, so the model counts the
    GPV messages and keeps no features: a cache line holds its flow key
    and how many packets it has buffered. *)

open Newton_packet

type slot = { key : Fivetuple.t; mutable n : int }

type t = {
  cache : slot option array;
  gpv_len : int; (** packet features per GPV message *)
  mutable messages : int;
  mutable packets : int;
}

let create ?(cache_size = 4096) ?(gpv_len = 4) () =
  { cache = Array.make cache_size None; gpv_len; messages = 0; packets = 0 }

let messages t = t.messages
let packets t = t.packets

let ship t = t.messages <- t.messages + 1

let process t pkt =
  t.packets <- t.packets + 1;
  let key = Fivetuple.of_packet pkt in
  let idx = Fivetuple.hash key mod Array.length t.cache in
  match t.cache.(idx) with
  | Some s when Fivetuple.equal s.key key ->
      s.n <- s.n + 1;
      if s.n >= t.gpv_len then begin
        ship t;
        s.n <- 0
      end
  | Some s ->
      (* Eviction ships the partial GPV. *)
      if s.n > 0 then ship t;
      t.cache.(idx) <- Some { key; n = 1 }
  | None -> t.cache.(idx) <- Some { key; n = 1 }

let finish t =
  Array.iter (function Some s when s.n > 0 -> ship t | _ -> ()) t.cache
