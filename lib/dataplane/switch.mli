(** A programmable switch: a pipeline of stages with resource
    accounting, forwarding state, and the two reconfiguration regimes of
    {!Reconfig}.  Agnostic of Newton module semantics — the runtime
    builds those on top. *)

type t

(** Tofino-style default: 12 stages per pipeline. *)
val default_stages : int

(** Typical switch.p4 forwarding-table population. *)
val default_fwd_entries : int

val create : ?fwd_entries:int -> id:int -> unit -> t

val id : t -> int
val num_stages : t -> int
val stage : t -> int -> Stage.t
val stages : t -> Stage.t array
val fwd_entries : t -> int

(** Monitoring rules currently installed. *)
val monitor_rules : t -> int

(** Cumulative forwarding outage, seconds (always 0 for rule-level
    reconfiguration). *)
val outage_time : t -> float

(** Place a component into a stage.
    @raise Stage.Stage_full when the stage budget is exceeded. *)
val place : t -> stage:int -> name:string -> Resource.t -> unit

val can_place : t -> stage:int -> Resource.t -> bool

(** Runtime rule installation; returns the simulated latency in seconds.
    Forwarding is never interrupted. *)
val install_rules : t -> count:int -> float

val remove_rules : t -> count:int -> float

(** Full program reload (the Sonata path): forwarding stops for the
    returned seconds; [offered_pps] converts the outage into dropped
    packets. *)
val full_reload : ?offered_pps:float -> t -> float

val dropped_during_outage : t -> int

val total_used : t -> Resource.t
val total_budget : t -> Resource.t
