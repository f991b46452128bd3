(** Newton: intent-driven network traffic monitoring — public facade.

    Operators express monitoring intents as stream-processing queries
    ({!Query}, {!Catalog}); Newton compiles them to table rules over
    reconfigurable data-plane modules ({!Compiler}), installs them
    dynamically on one switch ({!Device}) or across a network
    ({!Network}), and exports only the reports the intent asks for. *)

(* Vocabulary re-exports. *)
module Field = Newton_packet.Field
module Packet = Newton_packet.Packet
module Fivetuple = Newton_packet.Fivetuple
module Sp_header = Newton_packet.Sp_header
module Query = Newton_query.Ast
module Catalog = Newton_query.Catalog
module Report = Newton_query.Report
module Ref_eval = Newton_query.Ref_eval
module Trace = Newton_trace.Gen
module Trace_profile = Newton_trace.Profile
module Attack = Newton_trace.Attack
module Compiler = Newton_compiler.Compose
module Compile_options = Newton_compiler.Decompose
module Topo = Newton_network.Topo
module Route = Newton_network.Route
module Placement = Newton_controller.Placement
module Chaos = Newton_controller.Chaos
module Analyzer = Newton_runtime.Analyzer
module Shard = Newton_runtime.Shard
module Parallel_engine = Newton_runtime.Parallel_engine
module Telemetry = Newton_telemetry
module Introspect = Newton_runtime.Introspect

(** A query installed on a device or network; returned by [add_query]. *)
type handle = { uid : int; query : Newton_query.Ast.t }

(** Device-level Newton (§4): one programmable switch running
    dynamically reconfigurable queries. *)
module Device : sig
  type t

  val create :
    ?options:Newton_compiler.Decompose.options ->
    ?fwd_entries:int ->
    unit ->
    t

  val engine : t -> Newton_runtime.Engine.t
  val switch : t -> Newton_dataplane.Switch.t
  val queries : t -> Newton_query.Ast.t list

  (** Install a compiled query at runtime.  Returns the handle and the
      rule-install latency in seconds. *)
  val install : t -> Newton_compiler.Compose.t -> handle * float

  (** Compile and install a query: {!install} of
      [Compose.compile ~options query]. *)
  val add_query :
    ?options:Newton_compiler.Decompose.options ->
    t ->
    Newton_query.Ast.t ->
    handle * float

  (** Remove an installed query; returns the rule-removal latency, or
      [None] for an unknown handle. *)
  val remove_query : t -> handle -> float option

  (** Update = remove + reinstall with new parameters, still at runtime. *)
  val update_query : t -> handle -> Newton_query.Ast.t -> (handle * float) option

  val process_packet : t -> Newton_packet.Packet.t -> unit
  val process_trace : t -> Newton_trace.Gen.t -> unit
  val reports : t -> Newton_query.Report.t list
  val message_count : t -> int
  val monitor_rules : t -> int

  (** Telemetry snapshot of the device: sink counters, rule-table
      utilization, sketch health (see {!Newton_telemetry}). *)
  val metrics : t -> Newton_telemetry.Snapshot.t
end

(** Sharded replay (§6-scale evaluation): one switch whose packet
    stream is partitioned across OCaml 5 domains; [jobs = 1] is
    bit-identical to {!Device}. *)
module Parallel_device : sig
  type t

  val create :
    ?options:Newton_compiler.Decompose.options ->
    ?jobs:int ->
    ?batch:int ->
    ?shard_key:Newton_runtime.Shard.strategy ->
    unit ->
    t

  val engine : t -> Newton_runtime.Parallel_engine.t
  val jobs : t -> int
  val queries : t -> Newton_query.Ast.t list

  (** Install a compiled query on every shard. *)
  val install : t -> Newton_compiler.Compose.t -> handle

  (** Compile and install a query on every shard. *)
  val add_query :
    ?options:Newton_compiler.Decompose.options ->
    t ->
    Newton_query.Ast.t ->
    handle

  val remove_query : t -> handle -> bool
  val process_packets : t -> Newton_packet.Packet.t array -> unit
  val process_trace : t -> Newton_trace.Gen.t -> unit
  val reports : t -> Newton_query.Report.t list
  val message_count : t -> int
  val shard_loads : t -> int array

  (** Telemetry snapshot: per-domain sinks merged, sketch health over
      the ALU-merged banks — totals match the sequential {!Device}. *)
  val metrics : t -> Newton_telemetry.Snapshot.t
end

(** Network-wide Newton (§5): resilient placement + cross-switch query
    execution over a topology. *)
module Network : sig
  module Deploy = Newton_controller.Deploy

  type t

  val create :
    ?options:Newton_compiler.Decompose.options -> Newton_network.Topo.t -> t

  val controller : t -> Deploy.t
  val topo : t -> Newton_network.Topo.t

  (** Deploy a query network-wide.  [mode] defaults to CQE. *)
  val add_query :
    ?mode:[ `Cqe | `Sole ] ->
    ?edge_switches:int list ->
    ?stages_per_switch:int ->
    ?options:Newton_compiler.Decompose.options ->
    t ->
    Newton_query.Ast.t ->
    handle * float

  val remove_query : t -> handle -> float option

  val process_packet : t -> Newton_packet.Packet.t -> unit
  val process_trace : t -> Newton_trace.Gen.t -> unit
  val reports : t -> Newton_query.Report.t list
  val message_count : t -> int
  val sp_overhead_ratio : t -> float
  val fail_link : t -> Newton_network.Route.link -> unit
  val repair_link : t -> Newton_network.Route.link -> unit

  (** Fail a switch: reroute around it, re-run Algorithm 2, migrate the
      displaced slices' register state to the surviving hosts (or the
      software engine).  [None] if already down. *)
  val fail_switch : t -> int -> Deploy.recovery option

  (** Repair a switch: it regains its slices with empty state and
      converges from the next window.  [None] if not down. *)
  val repair_switch : t -> int -> Deploy.recovery option

  val failed_switches : t -> int list

  (** Reports after analyzer-style reconciliation (identity dedup). *)
  val reconciled_reports : t -> Newton_query.Report.t list

  (** Partial deployment (§7): mark a switch as legacy before deploying. *)
  val set_enabled : t -> int -> bool -> unit

  (** Packets whose query outlived the path and were deferred to the
      analyzer. *)
  val software_deferrals : t -> int

  (** Network-wide telemetry snapshot: every switch's engine metrics
      (labelled [switch=<id>]) plus the analyzer's software engine. *)
  val metrics : t -> Newton_telemetry.Snapshot.t
end
