(** Report analysis: per-window time series over the monitoring
    reports a deployment produced — what an operator dashboard shows.

    Aggregates {!Report.t} lists by (query, window), exposes counts,
    top-k keys, active spans and compact text sparklines. *)

type t = {
  (* (query_id, window) -> report count *)
  counts : (int * int, int) Hashtbl.t;
  (* query_id -> key vector -> occurrences *)
  keys : (int, (int array, int) Hashtbl.t) Hashtbl.t;
  mutable min_window : int;
  mutable max_window : int;
  mutable total : int;
}

let of_reports reports =
  let t =
    {
      counts = Hashtbl.create 64;
      keys = Hashtbl.create 8;
      min_window = max_int;
      max_window = min_int;
      total = 0;
    }
  in
  List.iter
    (fun (r : Report.t) ->
      t.total <- t.total + 1;
      if r.Report.window < t.min_window then t.min_window <- r.Report.window;
      if r.Report.window > t.max_window then t.max_window <- r.Report.window;
      let ck = (r.Report.query_id, r.Report.window) in
      Hashtbl.replace t.counts ck
        (1 + Option.value (Hashtbl.find_opt t.counts ck) ~default:0);
      let per_q =
        match Hashtbl.find_opt t.keys r.Report.query_id with
        | Some h -> h
        | None ->
            let h = Hashtbl.create 16 in
            Hashtbl.replace t.keys r.Report.query_id h;
            h
      in
      Hashtbl.replace per_q r.Report.keys
        (1 + Option.value (Hashtbl.find_opt per_q r.Report.keys) ~default:0))
    reports;
  t

(** Query ids that produced at least one report, ascending. *)
let query_ids t =
  Hashtbl.fold (fun q _ acc -> q :: acc) t.keys [] |> List.sort_uniq compare

(** Window range covered by any report; [None] when empty. *)
let window_span t =
  if t.total = 0 then None else Some (t.min_window, t.max_window)

(** Reports of one query in one window. *)
let count t ~query_id ~window =
  Option.value (Hashtbl.find_opt t.counts (query_id, window)) ~default:0

(** First/last window in which a query reported — the observed span of
    the incident. *)
let active_span t ~query_id =
  Hashtbl.fold
    (fun (q, w) _ acc ->
      if q <> query_id then acc
      else
        match acc with
        | None -> Some (w, w)
        | Some (lo, hi) -> Some (min lo w, max hi w))
    t.counts None

(** Most-reported key vectors of a query, descending. *)
let top_keys t ~query_id ~n =
  match Hashtbl.find_opt t.keys query_id with
  | None -> []
  | Some h ->
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) h []
      |> List.sort (fun (_, a) (_, b) -> compare b a)
      |> List.filteri (fun i _ -> i < n)

let spark_chars = [| ' '; '.'; ':'; '-'; '='; '+'; '*'; '#' |]

(** One character per window across the series' span, scaled to the
    query's peak ([""] when the query never reported). *)
let sparkline t ~query_id =
  match window_span t with
  | None -> ""
  | Some (lo, hi) ->
      let values =
        Array.init (hi - lo + 1) (fun i -> count t ~query_id ~window:(lo + i))
      in
      let peak = Array.fold_left max 0 values in
      if peak = 0 then ""
      else
        String.init (Array.length values) (fun i ->
            let v = values.(i) in
            if v = 0 then spark_chars.(0)
            else
              spark_chars.(1 + (v * (Array.length spark_chars - 2) / peak)))

(** Multi-line operator summary of all queries in the series. *)
let summary ?(top = 3) t =
  let buf = Buffer.create 256 in
  List.iter
    (fun q ->
      let span =
        match active_span t ~query_id:q with
        | Some (lo, hi) -> Printf.sprintf "windows %d-%d" lo hi
        | None -> "inactive"
      in
      Buffer.add_string buf
        (Printf.sprintf "Q%-3d %-14s [%s]\n" q span (sparkline t ~query_id:q));
      List.iter
        (fun (k, v) ->
          let key_str =
            Array.to_list k |> List.map string_of_int |> String.concat ","
          in
          Buffer.add_string buf (Printf.sprintf "      %s: %d reports\n" key_str v))
        (top_keys t ~query_id:q ~n:top))
    (query_ids t);
  Buffer.contents buf
