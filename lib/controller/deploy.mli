(** The Newton controller: network-wide query deployment (CQE or
    sole-switch), dynamic operations with rule-level latencies, partial
    deployment, failures, and software continuation of slices that
    outlive the forwarding path. *)

open Newton_network
open Newton_runtime
open Newton_dataplane

type mode = [ `Cqe | `Sole ]

type deployment = {
  uid : int;
  compiled : Newton_compiler.Compose.t;
  peer : Newton_analysis.Pass.peer;
      (** the intent as later admissions see it, its packet space
          computed once, at install *)
  mode : mode;
  mutable placement : Placement.t option;
      (** [None] for sole-switch mode; re-placed on switch failure *)
  stages_per_switch : int;
  mutable installed_rules : int;
}

(** One switch-failure or repair event with its recovery accounting. *)
type recovery = {
  r_switch : int;
  r_event : [ `Fail | `Repair ];
  r_slices_migrated : int;     (** dataplane-to-dataplane state migrations *)
  r_cells_moved : int;         (** occupied register cells merged *)
  r_software_fallbacks : int;  (** slices degraded to the software engine *)
  r_rules_installed : int;     (** table entries installed by recovery *)
  r_latency : float;           (** slowest switch's reconfiguration time *)
}

type t

val create : Topo.t -> t

val topo : t -> Topo.t
val route : t -> Route.t
val engine : t -> int -> Engine.t
val switch : t -> int -> Switch.t
val analyzer : t -> Analyzer.t

(** The analyzer's CPU engine, where slices beyond the forwarding path
    are lazily installed and continued. *)
val software_engine : t -> Engine.t
val deployments : t -> deployment list
val find_deployment : t -> int -> deployment option

(** Partial deployment (§7): mark a switch as legacy.  Affects
    subsequent deploys and packet processing. *)
val set_enabled : t -> int -> bool -> unit

val is_enabled : t -> int -> bool

(** Raised by {!deploy} when the static-analysis admission gate finds
    error-severity diagnostics; nothing was installed. *)
exception Rejected of Newton_analysis.Diag.t list

(** Placement facts for the analysis passes
    ({!Newton_analysis.Pass.target}) derived from a computed
    placement. *)
val target_of_placement : Placement.t -> Newton_analysis.Pass.target

(** A query that passed the admission gate, with the compiled program
    and the placement the gate judged; {!install} it before the
    deployed set changes. *)
type admitted

(** The admission gate for a query: compile it once, place the
    compiled program (always [`Cqe]), and analyse it once against the
    deployed set ({!Newton_analysis.Check.admit}).  [Ok (admitted, diags)]
    admits with warnings and infos; [Error diags] refuses, and nothing
    is installed.  Rejections and warnings are counted on the
    controller sink ([newton_analysis_rejections_total],
    [newton_analysis_warnings_total], labelled [stage="analysis"]). *)
val admit :
  t -> stages_per_switch:int -> Newton_query.Ast.t ->
  (admitted * Newton_analysis.Diag.t list, Newton_analysis.Diag.t list) result

(** Install an admitted query; returns [Ok (uid, slowest switch's
    install latency in seconds)].  A module cell overflowing
    mid-rollout rolls the partial installs back and returns [Error]
    with a single NA054 diagnostic. *)
val install : t -> admitted -> (int * float, Newton_analysis.Diag.t list) result

(** Deploy a compiled query network-wide: the admission gate of
    {!admit} on the compiled program ({!Newton_analysis.Check.admit_compiled}),
    then {!install}.  Refusals and capacity overflow come back as
    [Error diags]; never raises on admission or capacity. *)
val deploy_checked :
  ?mode:mode -> ?stages_per_switch:int -> t ->
  Newton_compiler.Compose.t ->
  (int * float, Newton_analysis.Diag.t list) result

(** Exception form of {!deploy_checked} — a thin wrapper.
    @raise Rejected when static analysis refuses the query.
    @raise Newton_runtime.Engine.Rules_exhausted on install-time
    capacity overflow (after rollback). *)
val deploy :
  ?mode:mode -> ?stages_per_switch:int -> t ->
  Newton_compiler.Compose.t -> int * float

(** Remove a deployment everywhere; returns the slowest removal
    latency. *)
val undeploy : t -> int -> float option

(** Process one packet along the forwarding path between two hosts:
    CQE deployments run slice d at the d-th Newton-enabled hop with the
    context in the SP header (lost across legacy switches); sole
    deployments run fully at every enabled hop; a query longer than the
    path defers to the analyzer.  A switch counts the packet
    ({!Newton_runtime.Engine.packets_seen}) and rolls its windows once,
    at the first slice it runs of it.  Every slice reads the packet
    where it lies (never copied, never written), and each engine it
    reached folds its counters into its sink once, before this
    returns. *)
val process_packet : t -> src_host:int -> dst_host:int -> Newton_packet.Packet.t -> unit

(** All reports so far: data plane network-wide plus the analyzer's
    software-continuation results. *)
val all_reports : t -> Newton_query.Report.t list

(** Monitoring messages: data-plane reports + software status exports. *)
val message_count : t -> int

(** Packets whose query outlived the path and were exported to the
    analyzer (§5.2). *)
val software_deferrals : t -> int

(** SP-header bytes / wire bytes. *)
val sp_overhead_ratio : t -> float

val packets : t -> int

(** Network-wide telemetry snapshot: per-switch engine metrics
    (labelled [switch=<id>]) plus the analyzer's software engine
    ([switch="analyzer"]), merged into one metric set. *)
val snapshot : t -> Newton_telemetry.Snapshot.t

(** Fail a link: forwarding reroutes on the next packet; resilient
    placement keeps monitoring without controller involvement. *)
val fail_link : t -> Route.link -> unit

val repair_link : t -> Route.link -> unit

(** Fail a switch: mark it down (forwarding reroutes around it), re-run
    Algorithm 2 over the surviving topology, install any slices the
    re-placement adds, and migrate each displaced slice's register state
    under the slot's ALU merge op — into every surviving host of the
    slice (rerouted flows fan out, and a key's packets cross exactly one
    of them), or into the software-continuation engine when no resilient
    placement exists.  Dedup memory travels with the state, so
    already-exported reports are not re-emitted.  Sole-switch
    deployments drop the dead instance without migration (every hop
    already holds the full state).  [None] if [s] was already down.
    @raise Invalid_argument if [s] is not a switch. *)
val fail_switch : t -> int -> recovery option

(** Repair a switch: mark it up and re-run Algorithm 2 so it regains its
    slices.  The rejoined switch starts with empty register state and
    converges from the next window boundary; failure-time instances are
    retained to cover the interim.  [None] if [s] was not down.
    @raise Invalid_argument if [s] is not a switch. *)
val repair_switch : t -> int -> recovery option

val failed_switches : t -> int list

(** Failure / repair events in occurrence order. *)
val recoveries : t -> recovery list

(** Network-wide reports after analyzer-style reconciliation:
    epoch-aligned sort + identity dedup, collapsing duplicates from
    sole-switch replication and post-migration re-emission. *)
val reconciled_reports : t -> Newton_query.Report.t list
