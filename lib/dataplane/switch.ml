(** A programmable switch: a pipeline of stages, forwarding state, and a
    reconfiguration interface with the two regimes of {!Reconfig}.

    The switch is deliberately agnostic of Newton module semantics — it
    provides stages with resource accounting, register-array allocation
    and rule-count/timing bookkeeping.  [Newton_runtime] builds the module
    machinery on top. *)

type t = {
  id : int;
  stages : Stage.t array;
  mutable fwd_entries : int;      (* forwarding rules of the resident program *)
  mutable monitor_rules : int;    (* currently installed monitoring rules *)
  mutable rule_ops : int;         (* lifetime install+remove operations *)
  mutable outage_time : float;    (* cumulative seconds of forwarding outage *)
  mutable dropped_during_outage : int;
  rng : Newton_util.Prng.t;
}

(** Tofino-style default: 12 stages per pipeline (§4.3). *)
let default_stages = 12

(** Typical switch.p4 forwarding-table population. *)
let default_fwd_entries = 6000

let create ?(fwd_entries = default_fwd_entries) ~id () =
  {
    id;
    stages = Array.init default_stages Stage.create;
    fwd_entries;
    monitor_rules = 0;
    rule_ops = 0;
    outage_time = 0.0;
    dropped_during_outage = 0;
    rng = Newton_util.Prng.of_int (7 + (id * 65537));
  }

let id t = t.id
let num_stages t = Array.length t.stages
let stage t i = t.stages.(i)
let stages t = t.stages
let fwd_entries t = t.fwd_entries
let monitor_rules t = t.monitor_rules
let outage_time t = t.outage_time

(** Place a component (module table / register array) into a stage.
    Raises [Stage.Stage_full] when the stage budget is exceeded. *)
let place t ~stage ~name cost = Stage.place t.stages.(stage) ~name cost

let can_place t ~stage cost = Stage.can_place t.stages.(stage) cost

(** Runtime rule installation: returns the simulated latency in seconds.
    Forwarding is not interrupted (outage_time unchanged). *)
let install_rules t ~count =
  t.monitor_rules <- t.monitor_rules + count;
  t.rule_ops <- t.rule_ops + count;
  Reconfig.install_latency t.rng ~rules:count

let remove_rules t ~count =
  t.monitor_rules <- max 0 (t.monitor_rules - count);
  t.rule_ops <- t.rule_ops + count;
  Reconfig.remove_latency t.rng ~rules:count

(** Full program reload (the Sonata path): forwarding stops for the
    returned number of seconds.  [offered_pps] converts the outage into a
    packet-drop count for throughput-timeline experiments. *)
let full_reload ?(offered_pps = 0.0) t =
  let outage = Reconfig.reload_outage ~rng:t.rng ~fwd_entries:t.fwd_entries () in
  t.outage_time <- t.outage_time +. outage;
  t.dropped_during_outage <-
    t.dropped_during_outage + int_of_float (outage *. offered_pps);
  outage

let dropped_during_outage t = t.dropped_during_outage

(** Aggregate resource usage across all stages. *)
let total_used t =
  Array.fold_left (fun acc s -> Resource.add acc (Stage.used s)) Resource.zero t.stages

let total_budget t =
  Array.fold_left (fun acc s -> Resource.add acc (Stage.budget s)) Resource.zero t.stages
