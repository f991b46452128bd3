(** Reactive intents: automatic runtime drill-down.  A {!rule} binds a
    trigger query to a template; when the trigger reports a new key, the
    template instantiates and installs at runtime (milliseconds, no
    interruption), up to a per-rule budget.  {!refinement} builds the
    rules of iterative prefix refinement. *)

open Newton_query

type rule = {
  trigger_id : int;              (** query id whose reports trigger *)
  template : Report.t -> Ast.t;  (** refined query for a report *)
  max_instances : int;
}

type spawned = {
  rule_trigger : int;
  trigger_keys : int array;
  handle : Facade.handle;
  query : Ast.t;
  latency : float;  (** rule-install time, seconds *)
}

type t

val create : Facade.Device.t -> rule list -> t

val device : t -> Facade.Device.t

(** Drill-downs spawned so far, oldest first. *)
val spawned : t -> spawned list

(** Scan reports since the last step and install drill-downs for new
    trigger keys; returns what was spawned with install latencies. *)
val step : t -> (Ast.t * float) list

(** Remove every spawned instance; returns how many were removed. *)
val retract_all : t -> int

(** Process a trace, stepping the reactive loop every [step_every]
    packets (default 1000) and once at the end. *)
val process_trace : ?step_every:int -> t -> Newton_trace.Gen.t -> unit

(** Iterative prefix refinement over [field]: Sonata's dynamic scope
    run as rule installs instead of reloads.  [levels] are key prefix
    lengths, coarse to fine, each in [1,32]; [th] is the per-window
    threshold.  Returns the root query (id [base_id + coarsest], default
    base 700), to install first, and one rule per non-finest level: a
    report of the level-[l] query (id [base_id + l]) installs the next
    level's query scoped to the reported prefix, without an instance
    budget.  Finest-level detections are the device reports with id
    [base_id + finest].
    @raise Invalid_argument on empty/unordered/out-of-range levels. *)
val refinement :
  ?base_id:int -> field:Newton_packet.Field.t -> levels:int list -> th:int ->
  unit -> Ast.t * rule list
