(** Snapshot exporters: JSON (every bench and CI artifact's schema) and the
    Prometheus text exposition format (scrape endpoints, operator
    tooling).  Both renderings are deterministic — sample order is the
    snapshot's, floats print via {!Metric.string_of_value} — so golden
    tests can compare exact strings. *)

open Newton_util

(* ---------------- JSON ---------------- *)

let json_of_value = function
  | Metric.V x ->
      if Float.is_integer x && Float.abs x < 1e15 then
        Json.Int (int_of_float x)
      else Json.Float x
  | Metric.Buckets { bounds; counts; sum; count } ->
      Json.Obj
        [
          ( "buckets",
            Json.List
              (List.init (Array.length counts) (fun i ->
                   Json.Obj
                     [
                       ( "le",
                         if i < Array.length bounds then Json.Float bounds.(i)
                         else Json.String "+Inf" );
                       ("count", Json.Int counts.(i));
                     ])) );
          ("sum", Json.Float sum);
          ("count", Json.Int count);
        ]

let json_of_sample (s : Metric.sample) =
  let labels =
    match s.Metric.labels with
    | [] -> []
    | ls -> [ ("labels", Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) ls)) ]
  in
  Json.Obj (labels @ [ ("value", json_of_value s.Metric.value) ])

let json_of_metric (m : Metric.t) =
  Json.Obj
    [
      ("name", Json.String m.Metric.name);
      ("kind", Json.String (Metric.kind_to_string m.Metric.kind));
      ("help", Json.String m.Metric.help);
      ("samples", Json.List (List.map json_of_sample m.Metric.samples));
    ]

(** The snapshot as a JSON value: [{"metrics": [...]}]. *)
let to_json (t : Snapshot.t) =
  Json.Obj [ ("metrics", Json.List (List.map json_of_metric t)) ]

let to_json_string t = Json.to_string (to_json t)

(* ---------------- Prometheus text format ---------------- *)

let prom_escape_help s =
  String.concat "\\n" (String.split_on_char '\n' s)

let add_plain_sample buf name (s : Metric.sample) x =
  Buffer.add_string buf name;
  Buffer.add_string buf (Metric.labels_to_string s.Metric.labels);
  Buffer.add_char buf ' ';
  Buffer.add_string buf (Metric.string_of_value x);
  Buffer.add_char buf '\n'

let add_histogram_sample buf name (s : Metric.sample) ~bounds ~counts ~sum
    ~count =
  (* Prometheus buckets are cumulative and carry an [le] label. *)
  let cumulative = ref 0 in
  Array.iteri
    (fun i c ->
      cumulative := !cumulative + c;
      let le =
        if i < Array.length bounds then Metric.string_of_value bounds.(i)
        else "+Inf"
      in
      Buffer.add_string buf name;
      Buffer.add_string buf "_bucket";
      Buffer.add_string buf
        (Metric.labels_to_string (s.Metric.labels @ [ ("le", le) ]));
      Buffer.add_char buf ' ';
      Buffer.add_string buf (string_of_int !cumulative);
      Buffer.add_char buf '\n')
    counts;
  add_plain_sample buf (name ^ "_sum") s sum;
  add_plain_sample buf (name ^ "_count") s (float_of_int count)

(** The snapshot in the Prometheus text exposition format. *)
let to_prometheus (t : Snapshot.t) =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (m : Metric.t) ->
      Buffer.add_string buf
        (Printf.sprintf "# HELP %s %s\n" m.Metric.name
           (prom_escape_help m.Metric.help));
      Buffer.add_string buf
        (Printf.sprintf "# TYPE %s %s\n" m.Metric.name
           (Metric.kind_to_string m.Metric.kind));
      List.iter
        (fun (s : Metric.sample) ->
          match s.Metric.value with
          | Metric.V x -> add_plain_sample buf m.Metric.name s x
          | Metric.Buckets { bounds; counts; sum; count } ->
              add_histogram_sample buf m.Metric.name s ~bounds ~counts ~sum
                ~count)
        m.Metric.samples)
    t;
  Buffer.contents buf
