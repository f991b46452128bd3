(** The typed request/response surface of the service daemon.

    One variant per command and per reply, each with a stable JSON
    codec (one object per line on the wire).  The daemon, the
    [newton intent] client and the tests all go through this module so
    the protocol cannot drift from the types.  Times and latencies
    travel as integer microseconds ([*_us] members). *)

(** How the operator names a query: a catalog id ([q4]) or DSL text. *)
type query_spec = Catalog of int | Dsl of string

type stats_format = Json_format | Prometheus_format

type request =
  | Submit of { spec : query_spec; name : string option }
  | Withdraw of int       (** intent id *)
  | List_intents
  | Status of int         (** intent id *)
  | Stats of stats_format
  | Fail_switch of int
  | Repair_switch of int
  | Shutdown

val spec_to_string : query_spec -> string

(** Operator-text form (tokens from {!Command.tokenize}), shared by the
    daemon's plain-text protocol and the [newton intent] CLI:
    {v
      submit q4 | submit <dsl...> [as <name>]
      withdraw <id> | status <id> | list
      stats [json|prom] | fail-switch <s> | repair-switch <s> | shutdown
    v} *)
val request_of_tokens : string list -> (request, string) result

type response =
  | Accepted of Intent.info
      (** submit succeeded; the intent is [Active] *)
  | Refused of { id : int; diags : Newton_analysis.Diag.t list }
      (** submit refused; the intent is [Failed] with these diagnostics *)
  | Withdrawn_ok of { id : int; latency : float }
  | Intent_list of Intent.info list
  | Intent_status of { info : Intent.info; history : (Intent.state * float) list }
      (** the intent's summary and every state it entered with the
          time it entered it, oldest first ({!Intent.history}) *)
  | Stats_payload of { format : stats_format; body : string }
  | Recovery_done of Newton_controller.Deploy.recovery option
      (** the fail/repair event the recovery engine handled; [None]
          when the switch was already in the requested state *)
  | Stopping
  | Error_resp of { code : string; message : string }

(** Line framing: parse/render one newline-delimited JSON message. *)
val request_of_line : string -> (request, string) result

val response_of_line : string -> (response, string) result
val request_to_line : request -> string
val response_to_line : response -> string

(** Human rendering for the [newton intent] client. *)
val response_summary : response -> string

(** [false] exactly for [Refused] and [Error_resp] (client exit code). *)
val response_is_ok : response -> bool
