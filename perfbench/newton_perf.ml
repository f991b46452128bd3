(** newton_perf — the repository benchmark's measuring program.

    {v
      newton_perf prepare --workload W --seed N --dir D
      newton_perf setup --workload W --seed N --dir D
      newton_perf measure --workload W --seed N --seconds S --trace 0|1 --dir D
    v}

    [prepare] builds the workload's input from the seed (the capture
    file of the pcap workloads) in its own process, so generating it
    never counts toward the measuring process's peak memory.
    [setup] makes one set-up of the workload's system and prints its
    figures on one line; [measure] starts it in fresh processes (see
    {!Child}).
    [measure] runs the workload for [S] seconds, checks its outputs,
    writes the full record (inputs, checks, metrics) and the spans of
    a traced run under [D], and prints the inputs and then the result
    as the last line of standard output. *)

module Json = Newton_util.Json

let workloads = [ "pcap_replay"; "pcap_replay_sharded"; "intent_churn" ]

let usage () =
  prerr_endline
    "usage: newton_perf (prepare|setup|measure) --workload W --seed N [--seconds S] \
     [--trace 0|1] --dir D";
  exit 2

let parse_args argv =
  let rec go acc = function
    | flag :: v :: rest when String.length flag > 2 && String.sub flag 0 2 = "--"
      ->
        go ((String.sub flag 2 (String.length flag - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  go [] argv

let get args k =
  match List.assoc_opt k args with Some v -> v | None -> usage ()

let get_int args k =
  match int_of_string_opt (get args k) with Some v -> v | None -> usage ()

let prepare ~workload ~seed ~dir =
  match workload with
  | "pcap_replay" | "pcap_replay_sharded" -> Pcap_workload.prepare ~dir seed
  | _ -> ()

let metric_json (name, value, unit_) =
  (name, Json.Obj [ ("value", Json.Float value); ("unit", Json.String unit_) ])

let measure ~workload ~seed ~seconds ~trace ~dir =
  let spans = Span.recorder trace in
  let seconds = float_of_int seconds in
  let steal0 = Outcome.steal_s () in
  let o =
    match workload with
    | "pcap_replay" ->
        Pcap_workload.run ~sharded:false ~workload ~seed ~seconds ~trace ~dir spans
    | "pcap_replay_sharded" ->
        Pcap_workload.run ~sharded:true ~workload ~seed ~seconds ~trace ~dir spans
    | _ -> Churn_workload.run ~seed ~seconds ~trace ~dir spans
  in
  let metrics =
    if trace then
      Metrics.complete
        (if workload = "pcap_replay_sharded" then
           Metrics.per_layer @ Metrics.sharded_layers
         else Metrics.per_layer)
        o.Outcome.per_layer
    else Metrics.complete Metrics.end_to_end o.Outcome.end_to_end
  in
  let correct =
    o.Outcome.consistent && List.for_all (fun (_, v, _) -> Float.is_finite v) metrics
  in
  let result =
    Json.Obj
      [
        ("correct", Json.Bool correct);
        ("attempted", Json.Int o.Outcome.attempted);
        ("failed", Json.Int o.Outcome.failed);
        ("metrics", Json.Obj (List.map metric_json metrics));
      ]
  in
  let inputs =
    Json.Obj
      ((("workload", Json.String workload) :: o.Outcome.inputs)
      @ [ ("host_steal_s", Json.Float (Outcome.steal_s () -. steal0)) ])
  in
  let stem = Printf.sprintf "%s-%d-trace%d" workload seed (Bool.to_int trace) in
  let oc = open_out (Filename.concat dir (stem ^ ".json")) in
  output_string oc
    (Jsonw.to_string
       (Json.Obj
          [ ("inputs", inputs); ("checks", Json.Obj o.Outcome.checks);
            ("result", result) ]));
  output_char oc '\n';
  close_out oc;
  if trace then Span.write spans (Filename.concat dir (stem ^ ".spans.jsonl"));
  print_endline (Jsonw.to_string (Json.Obj [ ("inputs", inputs) ]));
  print_endline (Jsonw.to_string result)

let () =
  match Array.to_list Sys.argv with
  | _ :: mode :: rest -> (
      let args = parse_args rest in
      let workload = get args "workload" in
      if not (List.mem workload workloads) then usage ();
      let seed = get_int args "seed" and dir = get args "dir" in
      match mode with
      | "prepare" -> prepare ~workload ~seed ~dir
      | "setup" ->
          Child.print
            (if workload = "intent_churn" then Churn_workload.cold_setup ()
             else Pcap_workload.cold_setup ~sharded:(workload = "pcap_replay_sharded"))
      | "measure" ->
          let trace =
            match get args "trace" with "0" -> false | "1" -> true | _ -> usage ()
          in
          measure ~workload ~seed ~seconds:(get_int args "seconds") ~trace ~dir
      | _ -> usage ())
  | _ -> usage ()
