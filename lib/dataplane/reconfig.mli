(** Reconfiguration timing model: runtime rule updates (Newton —
    milliseconds, no forwarding interruption) vs. full P4 program
    reloads (Sonata — seconds of outage growing linearly with the
    forwarding-table population; Fig. 10/11). *)

(** Per-forwarding-entry restore cost after a reload, seconds. *)
val reload_per_entry : float

(** Latency of installing [rules] table rules (one batched driver call;
    jitter drawn from the seeded generator). *)
val install_latency : Newton_util.Prng.t -> rules:int -> float

val remove_latency : Newton_util.Prng.t -> rules:int -> float

(** Forwarding outage of a full reload restoring [fwd_entries] rules.
    Newton never pays this; Sonata pays it on every query operation. *)
val reload_outage : ?rng:Newton_util.Prng.t -> fwd_entries:int -> unit -> float
