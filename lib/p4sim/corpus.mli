(** The pinned differential corpus: mixed v4/v6/ICMPv6/VXLAN traffic on
    which every catalog query Q1-Q17 reports at least once.  Tests, the
    bench, and [newton p4 diff --coverage-corpus] all replay this. *)

(** Generate the corpus, timestamp-ordered.  Defaults ([seed]=7,
    [scale]=0.15 of the CAIDA-like profile, ~62k packets) are the
    pinned full-coverage recipe; changing either voids the every-query-
    reports guarantee. *)
val coverage_packets : ?seed:int -> ?scale:float -> unit -> Newton_packet.Packet.t list
