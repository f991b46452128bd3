(** Domain-pool sharded trace replay.

    [jobs] replica {!Engine}s, one per shard; replay partitions packets
    with a {!Shard} strategy ([Flow] or [Branch_key]), runs each
    shard's stream in fixed-size batches on its own OCaml 5 domain, and
    merges results with {!Merge} (epoch-aligned reports, ALU-merged
    sketch state).  [jobs = 1] is bit-identical to the sequential
    {!Engine}.  Divergences of sharded replay (per-shard Bloom
    false-positive rates, per-shard report budgets, Flow-sharded
    cross-flow aggregates) are documented in docs/PARALLELISM.md. *)

open Newton_packet
open Newton_query
open Newton_sketch
open Newton_compiler

type t

val default_batch : int

(** [create ?jobs ?batch ?shard_key ~switch_id ()] — [jobs] defaults to
    {!Domain_pool.recommended_jobs} and [shard_key] to {!Shard.Flow}.
    @raise Invalid_argument if [jobs < 1] or [batch <= 0]. *)
val create :
  ?jobs:int -> ?batch:int -> ?shard_key:Shard.strategy -> switch_id:int ->
  unit -> t

val jobs : t -> int
val batch : t -> int
val strategy : t -> Shard.strategy
val shard_engines : t -> Engine.t array

(** Merged per-domain telemetry: each shard engine owns its own sink;
    the fold adds counters and histograms (associative/commutative,
    like the ALU merge of sketch state). *)
val merged_sink : t -> Newton_telemetry.Stats.sink

(** Enable (fresh per-shard sinks) or disable
    ([Newton_telemetry.Stats.null]) telemetry on every shard. *)
val set_telemetry : t -> bool -> unit

(** Packets routed to each shard so far. *)
val shard_loads : t -> int array

(** Install a compiled query on every shard under one uid; the rule
    count is the per-switch footprint.
    @raise Engine.Rules_exhausted as {!Engine.install}. *)
val install : t -> ?uid:int -> Compose.t -> int * int

(** Remove an installed query from every shard. *)
val remove : t -> int -> int option

(** Mirror budget, applied per shard. *)
val set_report_budget : t -> int option -> unit

(** Stage 1 of a large replay: pre-shard the stream into contiguous
    per-domain {!Newton_packet.Flat} arenas ({!Arena.build}); the shard
    function runs once per packet here and never again. *)
val build_arenas : t -> Packet.t array -> Flat.t array

(** Stage 2: replay each shard's arena on its own domain through the
    engine's compiled program ({!Engine.process_flat}); state merges
    only at observation points.
    @raise Invalid_argument when the arena count differs from [jobs]. *)
val replay_arenas : t -> Flat.t array -> unit

(** Replay a packet array: with [jobs = 1], and for calls of at most
    [batch] packets, packets dispatch inline on the calling domain (same
    shard routing, no shard setup); larger sharded calls run
    {!build_arenas} then {!replay_arenas}. *)
val process_packets : t -> Packet.t array -> unit

val process_trace : t -> Newton_trace.Gen.t -> unit

(** Shard-merged reports (sequential stream when [jobs = 1]). *)
val reports : t -> Report.t list

(** Drain every shard; returns the merged stream. *)
val drain_reports : t -> Report.t list

(** Reports emitted across shards, pre-dedup. *)
val message_count : t -> int

val packets_seen : t -> int

(** ALU-merged register state of one installed query across shards. *)
val merged_arrays :
  t -> int -> (Engine.array_key * Register_array.t) list option

(** Per-shard engine statistics. *)
val stats : t -> Engine.instance_stats list list

val to_string : t -> string
