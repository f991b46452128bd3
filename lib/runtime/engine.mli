(** Per-switch query execution engine.

    Holds installed query instances — whole chains for sole-switch
    execution or stage-range slices for CQE — with their register
    arrays, a ternary [newton_init] classifier table, per-module-cell
    rule capacity, per-instance 100 ms windows, and report
    deduplication.

    {!install} compiles each instance once into a flat program: dense
    field indices, direct register-array references, one state-bank
    slot kind per ALU, per-branch classifier triples, and each H/R slot
    bound to the key buffer of the K slot in effect at its chain
    position; a power-of-two hash range reduces with a mask.  An H, S
    and R of one suite that follow each other in the hosted chain
    compile to one slot; a suite a CQE cut splits keeps one slot per
    module.  One step runs that program over a packet's field words,
    executing the ALUs on the register cells, the guards and the
    context resets itself; {!process_flat}, {!process_packet} and
    {!process_instance} are drivers of this one compiled step, so they
    share report dedup, the mirror budget and window rolls, and fold
    counter telemetry into the sink once per call.

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

(** Count a packet against this engine without executing it: the path
    executors (the CQE executor and the controller) call it once per
    packet that runs at least one slice on this switch, however many
    deployments' slices that is. *)
val record_packet_seen : t -> unit

(** Install a slice [stage_lo, stage_hi] of a compiled query (defaults:
    the whole chain).  Non-first slices re-install shadow K/H modules
    (keys and per-suite hashes do not cross switches).  CQE slices of
    one deployment pass the same [uid].  Returns (uid, table entries).
    Register arrays come zeroed, reused from removed instances of the
    same size when there are any (see {!remove}).
    @raise Rules_exhausted when a module cell is out of capacity; the
    check is atomic (a rejected install leaves no residue). *)
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

(** Roll every instance whose window boundary [now] crossed (used by
    the path executor / controller).  Each instance uses its own query's
    window length — deliberately no per-call window parameter. *)
val maybe_roll_window : t -> float -> unit

(** Merge [src]'s sketch state and report-dedup memory into [dst] (the
    state-carrying half of switch-failure recovery).  Windows align
    first: a [dst] behind [src] is cleared and adopts [src]'s window; a
    [src] behind [dst] is stale and contributes nothing.  Arrays merge
    under [op_of]'s per-bank ALU op (see
    {!Newton_runtime.Merge.slot_merge_op}); [src]'s dedup entries carry
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
    a packet through one instance, resuming from [ctx] (fresh, or
    SP-restored under CQE), which serves as the branch-0 context without
    being reset.  Returns the post-slice context ([stopped] when a guard
    ended the packet).  Does not count the packet in {!packets_seen};
    callers account path hops with {!record_packet_seen} and roll
    windows with {!maybe_roll_window}. *)
val process_instance : t -> instance -> ctx:Ctx.t -> Packet.t -> Ctx.t

(** Device-level driver of the compiled step: run one packet through
    every instance whose [newton_init] entry it matches (first-slice
    instances only), rolling each matched instance's window. *)
val process_packet : t -> Packet.t -> unit

(** Arena driver of the compiled step: exactly {!process_packet} over
    every packet of the arena in order (same reports, same register
    state, same counter totals), read straight from the arena's
    buffers. *)
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

