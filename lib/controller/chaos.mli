(** Chaos harness: replay one trace twice — failure-free and under a
    switch fail/repair schedule — then diff the reconciled report sets.
    A diff is {e explained} when its window contains a schedule event;
    unexplained diffs are the recovery subsystem's failure signal. *)

open Newton_network
open Newton_query

type action = [ `Fail | `Repair ]

type event = { at : float; switch : int; action : action }

type diff = {
  d_report : Report.t;
  d_kind : [ `Missing | `Extra ];  (** relative to the failure-free run *)
  d_explained : bool;  (** the diff's window contains a schedule event *)
}

type result = {
  topo_name : string;
  query_ids : int list;
  events : event list;
  baseline_reports : int;  (** reconciled reports, failure-free run *)
  chaos_reports : int;     (** reconciled reports, chaos run *)
  matched : int;           (** identities present in both runs *)
  diffs : diff list;
  recoveries : Deploy.recovery list;  (** chaos run's recovery events *)
  silent : int list;
      (** queries with no failure-free report, outside an in-code
          allow-list (each entry with its reason): their diff compares
          two empty sides, so [--strict] fails on any *)
}

val unexplained : result -> diff list

(** Admit and install [queries] as the daemon does ({!Deploy.admit},
    {!Deploy.install}), replay the trace twice (with and without the
    event schedule) and diff the reconciled reports by identity.
    @raise Deploy.Rejected when a query is refused or overflows a
    module cell. *)
val run :
  ?stages_per_switch:int ->
  topo:Topo.t ->
  queries:Ast.t list ->
  events:event list ->
  Newton_trace.Gen.t ->
  result

(** Machine-readable diff artifact (the CI chaos leg uploads this);
    ["zero_unexplained_loss"] is the gate [--strict] checks. *)
val to_json : result -> Newton_util.Json.t

val to_json_string : result -> string
