(** The analysis driver: runs every registered pass over a query (or a
    query set) and renders reports.  Never raises on user input —
    escaped pass exceptions become NA099 diagnostics and compilation
    failures NA045. *)

open Newton_query
open Newton_compiler

(** Registered passes, in severity-of-subject order. *)
val passes : (module Pass.S) list

(** Build the per-query context (compiles the query once; a compile
    failure is recorded, not raised). *)
val make_ctx :
  ?cfg:Pass.config -> ?target:Pass.target ->
  ?peers:Pass.peer list -> ?co_resident:Compose.t list ->
  Ast.t -> Pass.ctx

(** Analyse one query. *)
val check_query :
  ?cfg:Pass.config -> ?target:Pass.target ->
  ?peers:Pass.peer list -> ?co_resident:Compose.t list ->
  Ast.t -> Diag.t list

(** The admission step every front-end runs before an install: compile
    [query] once, build the placement target from the compiled program
    ([target], when given), run every pass once against [peers] and
    [co_resident], and return the compiled program with its
    diagnostics, or [Error diags] when any is an error.  A query that
    does not compile is refused with its structural or NA045
    diagnostics. *)
val admit :
  ?cfg:Pass.config -> ?target:(Compose.t -> Pass.target option) ->
  ?peers:Pass.peer list -> ?co_resident:Compose.t list ->
  Ast.t -> (Compose.t * Diag.t list, Diag.t list) result

(** Analyse a set together: each query sees the others as peers and
    co-residents, so conflicts and stacked capacity surface; [target]
    is computed per compiled program, as in {!admit}.  Each query
    compiles once and its {!Pass.peer} record is built once, so a set
    of n intents computes n packet spaces. *)
val check_queries :
  ?cfg:Pass.config -> ?target:(Compose.t -> Pass.target option) ->
  Ast.t list -> Diag.t list

(** The deployment gate for a program that is already compiled:
    analyse it (with its actual compile options) against the deployed
    intents' peer records, built once when each was installed —
    conflicts and NA092/NA094 see the peers; capacity judges the query
    alone. *)
val admit_compiled :
  ?target:Pass.target -> peers:Pass.peer list -> Compose.t -> Diag.t list

(** {!admit_compiled} against deployed programs, building their peer
    records (and so their packet spaces) on every call. *)
val admission :
  ?target:Pass.target -> deployed:(Ast.t * Compose.t) list -> Compose.t ->
  Diag.t list

(** Human rendering of a report (one diagnostic per line, hints
    indented); [?witness] (default false) appends witness-packet
    lines. *)
val explain : ?witness:bool -> Diag.t list -> string

(** (errors, warnings, infos). *)
val severity_counts : Diag.t list -> int * int * int

(** Stable JSON report: a summary object plus the diagnostics array.
    The array is re-sorted into {!Diag.compare_stable}'s
    (query, span, code) order so the artifact is byte-stable under
    pass additions and severity retunes; [?witness] (default false)
    embeds witness packets. *)
val report_to_json : ?witness:bool -> Diag.t list -> Newton_util.Json.t

(** Report exit code; [strict] promotes warnings (1) to errors (2). *)
val exit_code : ?strict:bool -> Diag.t list -> int
