(** The first-class intent lifecycle behind the service daemon.

    {v
      Submitted --> Analyzed --> Placed --> Active --> Withdrawn
          |             |           |          |
          +-------------+-----------+----------+--> Failed
    v}

    [Withdrawn] and [Failed] are terminal; every transition is legality
    checked and timestamped. *)

type state = Submitted | Analyzed | Placed | Active | Failed | Withdrawn

val state_to_string : state -> string
val state_of_string : string -> state option
val all_states : state list
val is_terminal : state -> bool

(** The legal lifecycle edges: the happy path is strictly ordered
    (never [Active] without [Placed]), [Failed] is reachable from every
    non-terminal state, terminals have no successors. *)
val can_transition : state -> state -> bool

type t = {
  id : int;                         (** daemon-assigned intent id *)
  name : string;
  query : Newton_query.Ast.t;
  source : string;                  (** what the operator submitted *)
  mutable state : state;
  mutable diags : Newton_analysis.Diag.t list;
      (** admission-gate diagnostics *)
  mutable uid : int option;         (** controller deployment uid *)
  mutable rules : int;              (** table rules installed *)
  mutable install_latency : float option;
  mutable uninstall_latency : float option;
  submitted_at : float;
  mutable installed_at : float option;
  mutable finished_at : float option;
  mutable history : (state * float) list;  (** reverse order *)
}

val create :
  id:int -> name:string -> source:string -> now:float ->
  Newton_query.Ast.t -> t

(** Move to a new state, recording the timestamp; [Error] (and no
    mutation) on an illegal edge. *)
val transition : t -> now:float -> state -> (unit, string) result

(** Transition history, oldest first (starts with [Submitted]). *)
val history : t -> (state * float) list

(** The wire-facing summary served by [list]/[status] (and embedded in
    submit responses). *)
type info = {
  i_id : int;
  i_name : string;
  i_query_id : int;
  i_source : string;
  i_state : state;
  i_rules : int;
  i_reports : int;        (** reports attributed to the intent's query *)
  i_warnings : int;
  i_errors : int;
  i_submitted_at : float;
  i_installed_at : float option;
  i_finished_at : float option;
  i_install_latency : float option;
  i_uninstall_latency : float option;
  i_diags : Newton_analysis.Diag.t list;
}

val info : ?reports:int -> t -> info

(** Stable JSON codec.  Times and latencies travel as integer
    microseconds ([*_us] members) so epoch timestamps survive the
    minimal JSON layer's float rendering. *)
val info_to_json : info -> Newton_util.Json.t

val info_of_json : Newton_util.Json.t -> (info, string) result

val diags_of_json :
  Newton_util.Json.t -> (Newton_analysis.Diag.t list, string) result

(** One-line operator rendering for [newton intent list]. *)
val info_to_string : info -> string
