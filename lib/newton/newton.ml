(** The [Newton] umbrella: the one module external users open.

    Re-exports the full public surface — query DSL ({!Query},
    {!Catalog}), compiler ({!Compiler}), runtime ({!Runtime},
    {!Parallel_engine}), telemetry ({!Telemetry}), trace tooling
    ({!Trace}), the {!Device} / {!Parallel_device} / {!Network}
    facades and {!Reactive} intents — so programs never depend on
    [Newton_*] internal library names. *)

include Facade

(** Reactive intents: trigger reports spawn templated drill-down
    queries at runtime, prefix refinement among them. *)
module Reactive = Reactive

(** Runtime internals (engines, analyzer, introspection) for users who
    need more than the facades expose. *)
module Runtime = Newton_runtime

(** Capture-file ingestion: pcap/pcapng readers, the frame decoder,
    pcap export, and the paced streaming driver. *)
module Ingest = Newton_ingest

(** Static query/IR/placement analysis: diagnostics ([Diag]), the pass
    registry and driver ([Check]) behind [newton check] and the
    deployment admission gate. *)
module Analysis = Newton_analysis

(** The controller service: intent lifecycle, the typed daemon API and
    the [newton serve] socket loop. *)
module Service = Newton_service
