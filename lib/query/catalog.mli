(** The nine evaluation queries of the paper's Table 2, plus extension
    queries exercising the byte and maximum aggregations.  All
    thresholds are per 100 ms window.  Every query is reachable through
    {!by_id}; the constructors below are exported where a caller
    overrides the threshold (or Q15's port).

    Q2 SSH brute force, Q3 super spreaders, Q9 DNS responses without a
    TCP connection, Q11 jumbo senders (max aggregation), Q13 ICMP
    flood, Q14 SYN-ACK reflection, Q16 ICMPv6 scanners and Q17
    tunneled exfiltration take their default thresholds. *)

(** Q1 — hosts receiving more than [th] new TCP connections. *)
val q1 : ?th:int -> unit -> Ast.t

(** Q4 — port scanners (sources probing many destination ports). *)
val q4 : ?th:int -> unit -> Ast.t

(** Q5 — hosts under UDP DDoS (many distinct UDP sources). *)
val q5 : ?th:int -> unit -> Ast.t

(** Q6 — SYN-flood victims (#SYN − #FIN, two branches, Sub combine). *)
val q6 : ?th:int -> unit -> Ast.t

(** Q7 — hosts completing many TCP connections (Min combine). *)
val q7 : ?th:int -> unit -> Ast.t

(** Q8 — Slowloris victims (connections vs. bytes, Pair combine; the
    ratio test runs on the analyzer). *)
val q8 : ?th:int -> unit -> Ast.t

(** The paper's nine queries, in order. *)
val all : unit -> Ast.t list

(** The typed rejection for an id outside the catalog; carries the
    valid range so front-ends can print it.  A printer is registered. *)
exception Unknown_id of { id : int; min : int; max : int }

(** Total lookup: [None] outside the catalog's ids (1–17). *)
val find : int -> Ast.t option

(** @raise Unknown_id outside the catalog's ids. *)
val by_id : int -> Ast.t

(** Q10 — byte heavy hitters (sum aggregation). *)
val q10 : ?th:int -> unit -> Ast.t

(** Q12 — DNS amplification victims (byte Pair combine). *)
val q12 : ?th:int -> unit -> Ast.t

(** Q15 — UDP amplification victims: heavy byte volume from one
    amplifier service port ([port] defaults to 123/NTP; use
    [~port:1900] for SSDP). *)
val q15 : ?port:int -> ?th:int -> unit -> Ast.t

(** The extension queries (not part of the paper's evaluation set). *)
val extras : unit -> Ast.t list
