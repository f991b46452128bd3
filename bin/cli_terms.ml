(** Shared Cmdliner vocabulary for the [newton] subcommands.

    Every term that more than one subcommand takes — query selection,
    trace shaping, topology, sharding, pcap ingestion — lives here
    once, so [run]/[stats]/[netrun]/[chaos]/[serve] cannot drift apart
    in flag names, defaults or validation. *)

open Cmdliner
open Newton

(* ---------------- query selection ---------------- *)

let queries_arg =
  let doc =
    "Comma-separated query ids (1-9 paper, 10-17 extensions) from the catalog."
  in
  Arg.(value & opt (list int) [ 1 ] & info [ "q"; "queries" ] ~docv:"IDS" ~doc)

let dsl_arg =
  let doc =
    "Ad-hoc queries in the textual DSL (repeatable), e.g. \
     'filter(proto == udp) | map(dip) | reduce(dip, count) | filter(count > \
     100) | map(dip)'."
  in
  Arg.(value & opt_all string [] & info [ "query" ] ~docv:"DSL" ~doc)

let lookup_queries ids =
  try Ok (List.map Catalog.by_id ids)
  with Catalog.Unknown_id { id; min; max } ->
    Error
      (Printf.sprintf "newton: no catalog query Q%d; valid ids are %d-%d" id
         min max)

(* Combine catalog ids and ad-hoc DSL queries; ad-hoc queries get ids
   from 100 upward. *)
let gather_queries ids dsl =
  match lookup_queries ids with
  | Error msg -> Error msg
  | Ok qs -> (
      let rec go i acc = function
        | [] -> Ok (qs @ List.rev acc)
        | text :: rest -> (
            match
              Newton_query.Parser.parse_result ~id:i
                ~name:(Printf.sprintf "adhoc%d" (i - 100)) text
            with
            | Ok q -> go (i + 1) (q :: acc) rest
            | Error m -> Error m)
      in
      match go 100 [] dsl with
      | Ok all -> Ok all
      | Error m -> Error m)

(* The admission every install runs (Check.admit): each query is
   compiled and analysed once against the queries admitted before it,
   as peers and co-residents.  A refused intent prints its errors and
   exits 2, never a backtrace from deeper in the pipeline.  Returns the
   queries with their compiled programs, in order. *)
let admit_all qs =
  let admit admitted q =
    match
      Analysis.Check.admit
        ~peers:(List.map (fun (p, c) -> (p, Some c)) admitted)
        ~co_resident:(List.map snd admitted) q
    with
    | Ok (compiled, _) -> (q, compiled) :: admitted
    | Error diags ->
        prerr_endline
          (Analysis.Check.explain
             (List.filter
                (fun d -> d.Analysis.Diag.severity = Analysis.Diag.Error)
                diags));
        prerr_endline
          "newton: rejected by static analysis (run `newton check` for the \
           full report)";
        exit 2
  in
  List.rev (List.fold_left admit [] qs)

(* ---------------- trace shaping ---------------- *)

let profile_arg =
  let doc = "Trace profile: caida or mawi." in
  Arg.(value & opt (enum [ ("caida", `Caida); ("mawi", `Mawi) ]) `Caida
       & info [ "profile" ] ~docv:"PROFILE" ~doc)

let flows_arg =
  let doc = "Number of background flows in the synthetic trace." in
  Arg.(value & opt int 4000 & info [ "flows" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "PRNG seed for trace generation." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let attacks_arg =
  let default =
    Arg.info [ "attacks" ]
      ~doc:"Inject the default attack suite into the trace."
  in
  let extended =
    Arg.info [ "extended-attacks" ]
      ~doc:
        "Inject the extended attack suite: the default suite plus the \
         IPv6/ICMPv6/tunnel scenarios (NTP and SSDP amplification, ICMPv6 \
         scan, tunneled exfiltration) behind catalog queries Q15-Q17."
  in
  Arg.(
    value
    & vflag []
        [
          (Newton_trace.Attack.default_suite, default);
          (Newton_trace.Attack.extended_suite, extended);
        ])

let verbose_arg =
  let doc = "Print every report instead of a summary." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

let profile_of = function
  | `Caida -> Trace_profile.caida_like
  | `Mawi -> Trace_profile.mawi_like

let make_trace ?pcap_in profile flows seed attacks =
  match pcap_in with
  | Some path -> (
      try Ingest.Capture.load path
      with Ingest.Capture.Format_error m ->
        Printf.eprintf "pcap: %s: %s\n" path m;
        exit 1)
  | None ->
      Trace.generate ~attacks ~seed
        (Trace_profile.with_flows (profile_of profile) flows)

(* ---------------- validated numeric conversions ---------------- *)

(* Positive integer with parse-time validation: a bad --jobs/--batch is
   a CLI error (usage + nonzero exit), not a late runtime check. *)
let pos_int ~what =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | Some n -> Error (`Msg (Printf.sprintf "%s must be >= 1, got %d" what n))
    | None -> Error (`Msg (Printf.sprintf "%s expects an integer, got %S" what s))
  in
  Arg.conv (parse, Format.pp_print_int)

(* ---------------- pcap ingestion options ---------------- *)

let pcap_arg =
  Arg.(value & opt (some file) None
       & info [ "pcap" ] ~docv:"FILE"
           ~doc:"Ingest packets from a pcap/pcapng capture instead of a \
                 synthetic trace.")

(* Streaming-replay knobs, bundled so every replay command takes one
   term. *)
type ingest_opts = {
  io_pace : [ `Asap | `Realtime ];
  io_speedup : float;
  io_depth : int;
  io_chunk : int;
  io_policy : Ingest.Stream.policy;
}

let ingest_opts_term =
  let pace_arg =
    Arg.(value & opt (enum [ ("asap", `Asap); ("realtime", `Realtime) ]) `Asap
         & info [ "pace" ] ~docv:"MODE"
             ~doc:"Replay pacing: asap (as fast as the engine drains) or \
                   realtime (follow capture timestamps).")
  in
  let speedup_arg =
    Arg.(value & opt float 1.0
         & info [ "speedup" ] ~docv:"X"
             ~doc:"Time-compression factor for --pace realtime (2.0 replays \
                   twice as fast as captured).")
  in
  let depth_arg =
    Arg.(value
         & opt (pos_int ~what:"--queue-depth") Ingest.Stream.default_depth
         & info [ "queue-depth" ] ~docv:"N"
             ~doc:"Bounded ingest-queue capacity between the capture reader \
                   and the engine.")
  in
  let chunk_arg =
    Arg.(value & opt (pos_int ~what:"--chunk") Ingest.Stream.default_chunk
         & info [ "chunk" ] ~docv:"N"
             ~doc:"Packets handed to the engine per batch.")
  in
  let policy_arg =
    Arg.(value
         & opt
             (enum
                [ ("block", Ingest.Stream.Block); ("drop", Ingest.Stream.Drop) ])
             Ingest.Stream.Block
         & info [ "on-full" ] ~docv:"POLICY"
             ~doc:"Backpressure policy when the ingest queue fills: block \
                   the reader (lossless) or drop (count-and-discard, live \
                   capture semantics).")
  in
  let mk io_pace io_speedup io_depth io_chunk io_policy =
    if io_speedup <= 0.0 then begin
      prerr_endline "--speedup must be positive";
      exit 1
    end;
    { io_pace; io_speedup; io_depth; io_chunk; io_policy }
  in
  Term.(const mk $ pace_arg $ speedup_arg $ depth_arg $ chunk_arg $ policy_arg)

(* Stream a capture into [sink_fn] under the chosen pacing/backpressure,
   accounting every frame in [stats]. *)
let stream_pcap ~opts ~stats path sink_fn =
  let pace =
    match opts.io_pace with
    | `Asap -> Ingest.Stream.Asap
    | `Realtime -> Ingest.Stream.Realtime opts.io_speedup
  in
  try
    Ingest.Capture.with_source ~stats path (fun src ->
        Ingest.Stream.run ~depth:opts.io_depth ~chunk:opts.io_chunk ~pace
          ~policy:opts.io_policy ~stats src sink_fn)
  with Ingest.Capture.Format_error m ->
    Printf.eprintf "pcap: %s: %s\n" path m;
    exit 1

let print_ingest_summary stats (s : Ingest.Stream.summary) =
  let get k = Telemetry.Stats.get stats k in
  Printf.printf
    "ingest: %d frames, %d decoded, %d skipped (%d non-ip, %d truncated, \
     %d fragment, %d malformed), %d dropped on backpressure; %d chunks in \
     %.2f s\n"
    (get Telemetry.Stats.Ingest_frames)
    (get Telemetry.Stats.Ingest_decoded)
    (get Telemetry.Stats.Ingest_non_ip
    + get Telemetry.Stats.Ingest_truncated
    + get Telemetry.Stats.Ingest_fragment
    + get Telemetry.Stats.Ingest_malformed)
    (get Telemetry.Stats.Ingest_non_ip)
    (get Telemetry.Stats.Ingest_truncated)
    (get Telemetry.Stats.Ingest_fragment)
    (get Telemetry.Stats.Ingest_malformed)
    s.Ingest.Stream.dropped s.Ingest.Stream.chunks s.Ingest.Stream.wall_seconds

(* ---------------- topology / deployment shape ---------------- *)

let topo_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ "linear"; n ] -> (try Ok (Topo.linear (int_of_string n)) with _ -> Error (`Msg "bad linear size"))
    | [ "fat-tree"; k ] -> (
        try Ok (Topo.fat_tree (int_of_string k)) with
        | Invalid_argument m -> Error (`Msg m)
        | _ -> Error (`Msg "bad fat-tree arity"))
    | [ "bypass" ] -> Ok (Topo.bypass ())
    | [ "bypass"; s'; l ] -> (
        try Ok (Topo.bypass ~short:(int_of_string s') ~long:(int_of_string l) ()) with
        | Invalid_argument m -> Error (`Msg m)
        | _ -> Error (`Msg "bad bypass chain lengths"))
    | [ "isp" ] -> Ok (Topo.isp ())
    | _ -> Error (`Msg "expected linear:N, fat-tree:K, bypass[:S:L], or isp")
  in
  let print fmt t = Format.fprintf fmt "%s" (Topo.name t) in
  Arg.conv (parse, print)

let topo_arg =
  Arg.(value & opt topo_conv (Topo.fat_tree 4)
       & info [ "topo" ] ~docv:"TOPO"
           ~doc:"Topology: linear:N, fat-tree:K, bypass[:S:L], or isp.")

let stages_arg =
  Arg.(value & opt int 12
       & info [ "stages-per-switch" ] ~docv:"N"
           ~doc:"Pipeline stages each switch grants Newton (CQE slices the query).")

(* ---------------- sharded replay ---------------- *)

let jobs_arg =
  let doc =
    "Replay shards (OCaml 5 domains). 1 = the sequential engine; N > 1 \
     shards the packet stream (per-query key when one query is installed, \
     5-tuple otherwise) and merges the per-shard results."
  in
  Arg.(value & opt (pos_int ~what:"--jobs") 1
       & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let batch_arg =
  let doc = "Packets processed per shard batch (sharded replay only)." in
  Arg.(value
       & opt (pos_int ~what:"--batch") Newton_runtime.Parallel_engine.default_batch
       & info [ "batch" ] ~docv:"B" ~doc)
