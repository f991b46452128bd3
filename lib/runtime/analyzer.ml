(** The software analyzer.

    Collects data-plane reports, deduplicates them network-wide (with
    CQE a query reports once per path; with sole-switch execution every
    hop reports, and the analyzer sees the duplication as overhead), and
    finishes the query parts that stay on CPU — e.g. the Slowloris
    bytes-per-connection ratio test of Q8, which the data plane exports
    as a [Pair].

    Accuracy scoring against the exact reference evaluator lives here
    too, since the analyzer is where ground truth is compared in the
    paper's Fig. 14. *)

open Newton_query

type t = {
  mutable received : int;       (** monitoring messages arriving at CPU *)
  mutable reports : Report.t list; (* reverse order *)
  seen : (int * int * int array, unit) Hashtbl.t;
}

let create () = { received = 0; reports = []; seen = Hashtbl.create 256 }

let received t = t.received

(** Ingest a batch of data-plane reports (one message each). *)
let ingest t batch =
  List.iter
    (fun (r : Report.t) ->
      t.received <- t.received + 1;
      let key = (r.Report.query_id, r.Report.window, r.Report.keys) in
      if not (Hashtbl.mem t.seen key) then begin
        Hashtbl.add t.seen key ();
        t.reports <- r :: t.reports
      end)
    batch

(** Deduplicated reports, applying CPU-side post-filters: for Pair
    queries (Q8), keep only reports whose bytes/connection ratio is
    below 200 — many connections, few bytes each. *)
let results t =
  List.rev t.reports
  |> List.filter (fun (r : Report.t) ->
         match r.Report.value2 with
         | None -> true
         | Some bytes ->
             r.Report.value > 0
             && float_of_int bytes /. float_of_int r.Report.value < 200.0)

(** Render reports as CSV (header + one line per report), for offline
    analysis pipelines. *)
let to_csv reports =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "query_id,window,keys,value,value2\n";
  List.iter
    (fun (r : Report.t) ->
      Buffer.add_string buf
        (Printf.sprintf "%d,%d,%s,%d,%s\n" r.Report.query_id r.Report.window
           (String.concat ";"
              (Array.to_list (Array.map string_of_int r.Report.keys)))
           r.Report.value
           (match r.Report.value2 with Some v -> string_of_int v | None -> "")))
    reports;
  Buffer.contents buf

(* ---------------- accuracy scoring ---------------- *)

type accuracy = {
  true_positives : int;
  false_positives : int;
  false_negatives : int;
  recall : float;    (** the paper's "accuracy" *)
  precision : float;
  fpr : float;       (** false positives / reported *)
}

(** Compare detected key-sets against ground truth (both as report
    lists); identity is (query, window, keys). *)
let score ~truth ~detected =
  let key (r : Report.t) = (r.Report.query_id, r.Report.window, r.Report.keys) in
  let truth_set = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.replace truth_set (key r) ()) truth;
  let det_set = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.replace det_set (key r) ()) detected;
  let tp = ref 0 and fp = ref 0 in
  Hashtbl.iter
    (fun k () -> if Hashtbl.mem truth_set k then incr tp else incr fp)
    det_set;
  let fn = Hashtbl.length truth_set - !tp in
  let denom_t = Hashtbl.length truth_set in
  let denom_d = Hashtbl.length det_set in
  {
    true_positives = !tp;
    false_positives = !fp;
    false_negatives = fn;
    recall = (if denom_t = 0 then 1.0 else float_of_int !tp /. float_of_int denom_t);
    precision = (if denom_d = 0 then 1.0 else float_of_int !tp /. float_of_int denom_d);
    fpr = (if denom_d = 0 then 0.0 else float_of_int !fp /. float_of_int denom_d);
  }
