(** Engine introspection: assembling telemetry snapshots from sink
    counters plus gauges computed off live engine state (rule-table
    utilization vs cell capacity, stage occupancy, per-instance
    footprints, Bloom / Count-Min health). *)

open Newton_telemetry

(** Full snapshot of a sequential engine, every sample tagged with
    [labels] (e.g. [("switch", "0")]). *)
val engine_metrics : ?labels:(string * string) list -> Engine.t -> Snapshot.t

(** Snapshot of a sharded engine: merged per-domain counters, shard
    loads, shard-0 layout gauges, sketch health over the ALU-merged
    banks.  Counter totals equal the sequential engine's over the same
    stream. *)
val parallel_metrics :
  ?labels:(string * string) list -> Parallel_engine.t -> Snapshot.t
