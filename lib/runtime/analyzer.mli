(** The software analyzer: collects data-plane reports, deduplicates
    them network-wide, applies CPU-side post-filters (e.g. Q8's
    bytes-per-connection ratio), and scores detections against ground
    truth (Fig. 14). *)

open Newton_query

type t

val create : unit -> t

(** Monitoring messages received so far. *)
val received : t -> int

(** Ingest a batch of data-plane reports (one message each). *)
val ingest : t -> Report.t list -> unit

(** Deduplicated results; [Pair] reports are kept only when
    bytes/connections falls below 200. *)
val results : t -> Report.t list

(** Reports as CSV (header + one line per report; keys joined with
    ';'). *)
val to_csv : Report.t list -> string

type accuracy = {
  true_positives : int;
  false_positives : int;
  false_negatives : int;
  recall : float;    (** the paper's "accuracy" axis *)
  precision : float;
  fpr : float;       (** false positives / reported *)
}

(** Compare detections against ground truth; identity is
    (query, window, keys).  Empty-vs-empty scores 1.0 recall and
    precision. *)
val score : truth:Report.t list -> detected:Report.t list -> accuracy
