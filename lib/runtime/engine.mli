(** Per-switch query execution engine.

    Holds installed query instances — whole chains for sole-switch
    execution or stage-range slices for CQE — with their register
    arrays, a [newton_init] classifier, per-module-cell rule capacity,
    per-instance 100 ms windows, and report deduplication.

    The classifier is the engine's, as a switch has one [newton_init]
    table: {!install} and {!remove} rebuild it from the distinct
    (field, mask, value) atoms of every hosted branch's entry, and each
    packet evaluates those atoms once into a bitset, and its window
    index once per distinct window length.  A branch then matches when
    its need-mask's bits are all set.

    {!install} compiles each instance once into a flat program: field
    cell offsets ({!Packet.offset}), direct register-array references
    (a Bloom bank's in one-bit cells), one state-bank slot kind per ALU,
    and each H/R slot bound to the key buffer of the K slot in effect at
    its chain position; a power-of-two hash range reduces with a mask.
    An H, S and R of one suite that follow each other in the hosted
    chain compile to one slot; a suite a CQE cut splits keeps one slot
    per module.  One step runs that program over a packet's row, read in
    place and never written, executing the ALUs on the register cells,
    the guards and the context resets itself; {!process_flat}, {!process_packet} and
    {!process_slice} are drivers of this one compiled step, so they
    share report dedup, the mirror budget and window rolls.  The first
    two fold counter telemetry into the sink once per call; the CQE
    path executor runs {!process_slice} on the caller's packet as a
    one-row arena and calls {!flush} once per packet for each engine the
    packet reached.

    Both {!t} and {!instance} are abstract: every observable — budgets,
    counters, rules, arrays — is reached through accessor functions, so
    callers (the CQE path executor, the controller, the sharded replay
    engine, telemetry) never depend on the engine's representation.
    Runtime events feed the engine's {!Newton_telemetry.Stats.sink};
    pass {!Newton_telemetry.Stats.null} to make the instrumentation
    cost a single branch. *)

open Newton_packet
open Newton_query
open Newton_compiler
open Newton_telemetry

type array_key = int * int * int (** branch, prim, suite *)

(** One installed query slice (abstract; see the [instance_*]
    accessors). *)
type instance

type t

(** Raised when a module table cannot accept another query's rule. *)
exception Rules_exhausted of { stage : int; kind : string }

(** [create ~switch_id ()] — [sink] defaults to a fresh recording sink;
    pass [Stats.null] to disable telemetry entirely. *)
val create : ?sink:Stats.sink -> switch_id:int -> unit -> t

val switch_id : t -> int

(** The engine's telemetry sink. *)
val sink : t -> Stats.sink

val set_sink : t -> Stats.sink -> unit

(** Cap the mirror sessions: at most [n] report exports per window
    ([None] = unlimited, the default).  Overflow reports are dropped on
    the wire. *)
val set_report_budget : t -> int option -> unit

(** Reports dropped because the mirror budget was exhausted. *)
val dropped_reports : t -> int

val instances : t -> instance list

(** Reports in emission order. *)
val reports : t -> Report.t list

val report_count : t -> int
val packets_seen : t -> int

(** Count a packet against this engine without executing it: the CQE
    path executor calls it once per packet that runs at least one slice
    on this switch, however many deployments' slices that is.
    {!packets_seen} counts it at once, the sink at the next {!flush}. *)
val record_packet_seen : t -> unit

(** Tally one CQE hop reaching this switch, for the next {!flush}. *)
val count_cqe_hop : t -> unit

(** Tally SP-header bytes carried into this switch, for the next
    {!flush}. *)
val count_sp_header : t -> int -> unit

(** Tally one software continuation run here, for the next {!flush}. *)
val count_continuation : t -> unit

(** Install a slice [stage_lo, stage_hi] of a compiled query (defaults:
    the whole chain).  Non-first slices re-install shadow K/H modules
    (keys and per-suite hashes do not cross switches).  CQE slices of
    one deployment pass the same [uid].  Returns (uid, table entries).
    Register arrays come zeroed, reused from removed instances of the
    same size and cell width when there are any (see {!remove}).
    @raise Rules_exhausted when a module cell is out of capacity, or
    the [newton_init] classifier's 1024 entries are (stage 0, kind
    ["newton_init"]); the check is atomic (a rejected install leaves no
    residue). *)
val install :
  t -> ?uid:int -> ?stage_lo:int -> ?stage_hi:int -> Compose.t -> int * int

(** Remove an instance, releasing its rules and classifier entries;
    returns the freed entry count.  Its register arrays go back to the
    engine for later installs to reuse, so a removed instance's
    {!instance_arrays} must not be read afterwards. *)
val remove : t -> int -> int option

(** The instance installed under a uid — the first one installed if
    several share it, exactly what a scan of {!instances} finds.  A uid
    index kept by {!install} and {!remove}: constant time, no
    allocation, so the path executors look up one slice per hop at no
    cost in the number of co-resident instances. *)
val find_instance : t -> int -> instance option

(** Monitoring table entries currently installed. *)
val total_rules : t -> int

(** Entries currently in the [newton_init] classifier. *)
val init_table_size : t -> int

(** Rules held per physical module cell (stage, kind, metadata set),
    sorted — the utilization side of the
    [Module_cost.rules_per_module] capacity. *)
val cell_usage :
  t -> ((int * Newton_dataplane.Module_cost.kind * int) * int) list

(** Start the first packet of [row] on this engine, for the path
    executors: classify it and roll every instance whose window boundary
    its timestamp crossed.  Each instance uses its own query's window
    length — deliberately no per-call window parameter; the timestamp
    is divided once per distinct length among the installed instances.
    {!process_slice} reads the classification, so a path executor calls
    this on an engine before the packet's first slice there. *)
val begin_packet : t -> Flat.t -> unit

(** Merge [src]'s sketch state and report-dedup memory into [dst] (the
    state-carrying half of switch-failure recovery).  Windows align
    first: a [dst] behind [src] is cleared and adopts [src]'s window; a
    [src] behind [dst] is stale and contributes nothing.  Arrays merge
    under [op_of]'s per-bank ALU op (see
    {!Newton_runtime.Merge.array_ops}); [src]'s dedup entries carry
    over so the replacement does not re-emit already-exported reports.
    Returns (banks merged, occupied cells moved).
    @raise Invalid_argument on an array-key mismatch or a bank [op_of]
    cannot resolve. *)
val absorb_state :
  op_of:(array_key -> Newton_sketch.Register_array.merge_op option) ->
  src:instance ->
  dst:instance ->
  int * int

(** Driver of the compiled step for CQE and software continuation: run
    the first packet of [row] through one instance, resuming from [ctx]
    (fresh, or SP-restored under CQE), which serves as the branch-0
    context without being reset; [ctx.stopped] is set when a guard ended
    the packet.  Neither copies nor writes the packet, nor touches the
    sink: counter events wait in the engine's tally for {!flush}.  Does not count the
    packet in {!packets_seen}; callers account path hops with
    {!record_packet_seen}, and classify the packet and roll windows
    with {!begin_packet} first. *)
val process_slice : t -> instance -> ctx:Ctx.t -> Flat.t -> unit

(** Fold the tallied counter events into the sink.  The path executor
    calls it once per packet for every engine the packet reached, so
    after each packet the sink holds every event. *)
val flush : t -> unit

(** Device-level driver of the compiled step: run one packet through
    every instance whose [newton_init] entry it matches (first-slice
    instances only), rolling each matched instance's window.  The
    packet is read where it lies, as a one-row arena: never copied,
    never written. *)
val process_packet : t -> Packet.t -> unit

(** Arena driver of the compiled step: exactly {!process_packet} over
    every packet of the arena in order (same reports, same register
    state, same counter totals), each read in place from its row. *)
val process_flat : t -> Flat.t -> unit

(** Return and clear the collected reports. *)
val drain_reports : t -> Report.t list

(** {2 Instance accessors} *)

val instance_uid : instance -> int

(** The instance's source query. *)
val instance_query : instance -> Ast.t

(** Table entries this slice holds. *)
val instance_rules : instance -> int

val instance_stage_lo : instance -> int

(** Current window index. *)
val instance_window : instance -> int

(** Distinct report keys exported (or dropped by the mirror budget) in
    the current window: the dedup memory, keyed by the operation keys
    alone since entering a window empties it. *)
val instance_reported_keys : instance -> int

(** Hosted slots per branch, chain order. *)
val instance_slots : instance -> Ir.slot list array

(** The register arrays this slice owns, keyed by (branch, prim,
    suite), sorted by key. *)
val instance_arrays :
  instance -> (array_key * Newton_sketch.Register_array.t) list

val instance_array :
  instance -> array_key -> Newton_sketch.Register_array.t option

