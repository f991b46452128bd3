(** Newton: intent-driven network traffic monitoring.

    The public facade of the library.  Operators express monitoring
    intents as stream-processing queries ({!Query}, {!Catalog}); Newton
    compiles them to table rules over reconfigurable data-plane modules
    ({!Compiler}), installs them dynamically — no switch reboot — on one
    switch ({!Device}) or across a network with resilient placement and
    cross-switch execution ({!Network}), and exports only the reports the
    intent asks for.

    Quick start:
    {[
      let device = Newton.Device.create () in
      let handle, latency = Newton.Device.add_query device (Newton.Catalog.q4 ()) in
      Array.iter (Newton.Device.process_packet device) packets;
      let scans = Newton.Device.reports device in
      ...
    ]} *)

(* Re-exports: the vocabulary types examples and benches need. *)
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
module Device = struct
  open Newton_runtime
  open Newton_dataplane

  type t = {
    engine : Engine.t;
    switch : Switch.t;
    options : Newton_compiler.Decompose.options;
    mutable handles : handle list;
  }

  let create ?(options = Newton_compiler.Decompose.default_options) () =
    {
      engine = Engine.create ~switch_id:0 ();
      switch = Switch.create ~id:0 ();
      options;
      handles = [];
    }

  let engine t = t.engine
  let switch t = t.switch
  let queries t = List.map (fun h -> h.query) t.handles

  (** Install a compiled query at runtime.  Returns the handle and the
      rule-install latency in seconds; forwarding is never
      interrupted. *)
  let install t compiled =
    let uid, rules = Engine.install t.engine compiled in
    let latency = Switch.install_rules t.switch ~count:rules in
    let h = { uid; query = compiled.Newton_compiler.Compose.query } in
    t.handles <- h :: t.handles;
    (h, latency)

  (** Compile and install a query at runtime. *)
  let add_query ?options t query =
    let options = Option.value options ~default:t.options in
    install t (Newton_compiler.Compose.compile ~options query)

  (** Remove an installed query; returns the rule-removal latency, or
      [None] for an unknown handle. *)
  let remove_query t h =
    match Engine.remove t.engine h.uid with
    | None -> None
    | Some rules ->
        t.handles <- List.filter (fun x -> x.uid <> h.uid) t.handles;
        Some (Switch.remove_rules t.switch ~count:rules)

  (** Update = remove + reinstall with new parameters, still at runtime. *)
  let update_query t h query =
    match remove_query t h with
    | None -> None
    | Some lat_rm ->
        let h', lat_in = add_query t query in
        Some (h', lat_rm +. lat_in)

  let process_packet t pkt = Engine.process_packet t.engine pkt
  let process_trace t trace = Newton_trace.Gen.iter (process_packet t) trace
  let reports t = Engine.reports t.engine
  let message_count t = Engine.report_count t.engine
  let monitor_rules t = Engine.total_rules t.engine

  (** Telemetry snapshot of the device: sink counters, rule-table
      utilization, sketch health (see {!Newton_telemetry}). *)
  let metrics t = Newton_runtime.Introspect.engine_metrics t.engine
end

(** Sharded replay (§6-scale evaluation): one switch whose packet
    stream is partitioned across OCaml 5 domains, each shard a replica
    engine, results folded back with the ALU merge ops.  [jobs = 1] is
    bit-identical to {!Device}. *)
module Parallel_device = struct
  open Newton_runtime

  type t = {
    engine : Parallel_engine.t;
    options : Newton_compiler.Decompose.options;
    mutable handles : handle list;
  }

  let create ?(options = Newton_compiler.Decompose.default_options) ?jobs
      ?batch ?shard_key () =
    {
      engine = Parallel_engine.create ?jobs ?batch ?shard_key ~switch_id:0 ();
      options;
      handles = [];
    }

  let engine t = t.engine
  let jobs t = Parallel_engine.jobs t.engine
  let queries t = List.map (fun h -> h.query) t.handles

  (** Install a compiled query on every shard. *)
  let install t compiled =
    let uid, _rules = Parallel_engine.install t.engine compiled in
    let h = { uid; query = compiled.Newton_compiler.Compose.query } in
    t.handles <- h :: t.handles;
    h

  (** Compile and install a query on every shard. *)
  let add_query ?options t query =
    let options = Option.value options ~default:t.options in
    install t (Newton_compiler.Compose.compile ~options query)

  let remove_query t h =
    match Parallel_engine.remove t.engine h.uid with
    | None -> false
    | Some _ ->
        t.handles <- List.filter (fun x -> x.uid <> h.uid) t.handles;
        true

  let process_packets t pkts = Parallel_engine.process_packets t.engine pkts
  let process_trace t trace = Parallel_engine.process_trace t.engine trace
  let reports t = Parallel_engine.reports t.engine
  let message_count t = Parallel_engine.message_count t.engine
  let shard_loads t = Parallel_engine.shard_loads t.engine

  (** Telemetry snapshot: per-domain sinks merged, sketch health over
      the ALU-merged banks — totals match the sequential {!Device}. *)
  let metrics t = Newton_runtime.Introspect.parallel_metrics t.engine
end

(** Network-wide Newton (§5): resilient placement + cross-switch query
    execution over a topology. *)
module Network = struct
  module Deploy = Newton_controller.Deploy

  type t = {
    deploy : Deploy.t;
    options : Newton_compiler.Decompose.options;
    mutable handles : handle list;
  }

  let create ?(options = Newton_compiler.Decompose.default_options) topo =
    { deploy = Deploy.create topo; options; handles = [] }

  let controller t = t.deploy
  let topo t = Deploy.topo t.deploy

  (** Deploy a query network-wide with CQE; [stages_per_switch] is how
      many pipeline stages each switch grants Newton. Returns the handle
      and the slowest switch's install latency. *)
  let add_query ?(stages_per_switch = 12) ?options t query =
    let options = Option.value options ~default:t.options in
    let compiled = Newton_compiler.Compose.compile ~options query in
    let uid, latency = Deploy.deploy ~stages_per_switch t.deploy compiled in
    let h = { uid; query } in
    t.handles <- h :: t.handles;
    (h, latency)

  let remove_query t h =
    match Deploy.undeploy t.deploy h.uid with
    | None -> None
    | Some latency ->
        t.handles <- List.filter (fun x -> x.uid <> h.uid) t.handles;
        Some latency

  let process_packet t pkt =
    let topo = Deploy.topo t.deploy in
    let src_host = Topo.host_of_ip topo (Packet.get pkt Field.Src_ip) in
    let dst_host = Topo.host_of_ip topo (Packet.get pkt Field.Dst_ip) in
    Deploy.process_packet t.deploy ~src_host ~dst_host pkt

  let process_trace t trace = Newton_trace.Gen.iter (process_packet t) trace

  let reports t = Deploy.all_reports t.deploy
  let message_count t = Deploy.message_count t.deploy
  let sp_overhead_ratio t = Deploy.sp_overhead_ratio t.deploy
  let fail_link t l = Deploy.fail_link t.deploy l
  let repair_link t l = Deploy.repair_link t.deploy l
  let fail_switch t s = Deploy.fail_switch t.deploy s
  let repair_switch t s = Deploy.repair_switch t.deploy s
  let failed_switches t = Deploy.failed_switches t.deploy
  let reconciled_reports t = Deploy.reconciled_reports t.deploy

  (** Partial deployment (§7): mark a switch as legacy before deploying. *)
  let set_enabled t s b = Deploy.set_enabled t.deploy s b

  (** Packets whose query outlived the path and were deferred to the
      analyzer. *)
  let software_deferrals t = Deploy.software_deferrals t.deploy

  (** Network-wide telemetry snapshot: every switch's engine metrics
      (labelled [switch=<id>]) plus the analyzer's software engine. *)
  let metrics t = Deploy.snapshot t.deploy
end
