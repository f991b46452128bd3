(** Structured diagnostics: what every analysis pass emits.  Codes are
    stable (NAxxx, append-only); golden tests and front-ends key on
    them.  See docs/ANALYSIS.md for the full code table. *)

open Newton_packet

type severity = Info | Warning | Error

(** Where in the query (or its compiled/placed form) a finding sits. *)
type span =
  | Query                                  (** the query as a whole *)
  | Branch of int
  | Prim of { branch : int; prim : int }
  | Combine
  | Stage of int                           (** a pipeline stage cell *)
  | Switch of int                          (** a placement switch *)
  | Cut of int                             (** a CQE slice (1-based) *)

val span_to_string : span -> string

type t = {
  code : string;          (** stable, e.g. "NA020" *)
  severity : severity;
  query_id : int;
  query_name : string;
  span : span;
  message : string;
  hint : string option;
  witness : Packet.t option;
      (** a concrete packet demonstrating the finding, attached by the
          exact packet-space passes (NA090–NA094) *)
}

val make :
  code:string -> severity:severity -> ?span:span -> ?hint:string ->
  ?witness:Packet.t -> query:Newton_query.Ast.t -> string -> t

(** [?witness] (default false) appends the witness line, when the
    diagnostic carries one. *)
val to_string : ?witness:bool -> t -> string

(** Stable member order: code, severity, query_id, query_name, span,
    message, hint[, witness].  The witness member — non-zero fields
    only — is embedded only when [?witness] is true (default false, so
    existing consumers see an unchanged schema). *)
val to_json : ?witness:bool -> t -> Newton_util.Json.t

(** Severity-major order (errors first) for human-facing reports. *)
val compare : t -> t -> int

(** (query, span, code)-major order for machine output: stable under
    pass additions and severity retunes. *)
val compare_stable : t -> t -> int

val has_errors : t list -> bool

(** Process exit code of a report: 0 clean/info, 1 warnings, 2 errors. *)
val exit_code : t list -> int
