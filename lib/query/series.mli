(** Report analysis: per-window time series over monitoring reports —
    counts, top-k keys, active spans, compact text sparklines. *)

type t

val of_reports : Report.t list -> t

(** Multi-line operator summary (span + sparkline + top keys per
    query). *)
val summary : ?top:int -> t -> string
