(** The capture workloads: [newton run --pcap] at jobs=1
    ([pcap_replay]) and at jobs=2 ([pcap_replay_sharded]).

    One measured pass is what the CLI does: create the device, compile
    and install the 17 catalog intents (set-up), stream the capture
    through [Capture.with_source] -> [Stream.run] into the device
    (Asap, Block, depth 4096, chunk 1024), collect the reports and
    export them as CSV through the analyzer.  Passes repeat with a
    fresh device until the run's seconds are spent.  The set-up figures
    come from cold set-ups, each in a process of its own (see
    {!Child}), three before every pass.

    In a traced run, traced passes alternate with untraced ones: the
    traced ones time each call the benchmark makes into a layer, the
    untraced ones give the figures the tracing overhead is taken
    against. *)

module Json = Newton_util.Json
module Device = Newton.Device
module Pdev = Newton.Parallel_device
module Pengine = Newton_runtime.Parallel_engine
module Engine = Newton_runtime.Engine
module Capture = Newton_ingest.Capture
module Stream = Newton_ingest.Stream
module Stats = Newton_telemetry.Stats
module Report = Newton_query.Report

let jobs = 2
let batch = 512
let depth = Stream.default_depth
let chunk = Stream.default_chunk

(** Background flows of the generated capture; the extended attack
    suite rides on top. *)
let flows = 20_000

let generate seed =
  Newton_trace.Gen.generate ~attacks:Newton_trace.Attack.extended_suite ~seed
    (Newton_trace.Profile.with_flows Newton_trace.Profile.caida_like flows)

let capture_path ~dir seed = Filename.concat dir (Printf.sprintf "capture-%d.pcap" seed)

(** Set-up of the input, outside any measured process: generate the
    trace from the seed and export it as classic pcap. *)
let prepare ~dir seed = Capture.export (generate seed) (capture_path ~dir seed)

let queries () = Newton_query.Catalog.all () @ Newton_query.Catalog.extras ()
let now = Outcome.now

(* One device behind the chunk-sink interface the CLI uses. *)
type device = Seq of Device.t | Sharded of Pdev.t

let create_device ~sharded =
  if sharded then
    Sharded (Pdev.create ~jobs ~batch ~shard_key:Newton_runtime.Shard.Flow ())
  else Seq (Device.create ())

let rules_installed = function
  | Seq d -> Device.monitor_rules d
  | Sharded p -> Engine.total_rules (Pengine.shard_engines (Pdev.engine p)).(0)

let add_query dev q =
  match dev with
  | Seq d -> ignore (Device.add_query d q)
  | Sharded p -> ignore (Pdev.add_query p q)

let device_reports = function
  | Seq d -> Device.reports d
  | Sharded p -> Pdev.reports p

let shard_loads ~delivered = function
  | Seq _ -> [| delivered |]
  | Sharded p -> Pdev.shard_loads p

(** Cold set-ups per pass: three times the samples of one set-up per
    pass for the same run length. *)
let setups_per_pass = 3

type setup = {
  seconds : float;
  installs : float list;  (* per-intent compile+install, seconds *)
  compiles : float list;  (* traced: Compose.compile alone, seconds *)
  rules : int list;       (* rules each install added *)
}

type pass = {
  traced : bool;
  local : setup;       (* in-process: its device streams the capture *)
  cold : setup list;   (* each in a fresh process *)
  pass_s : float;      (* capture opened to CSV written *)
  pps : float;
  delivered : int;
  stats : Stats.sink;
  dropped : int;
  reports : Report.t list;
  layers : (string * float) list;  (* traced only *)
}

(* Set-up: create the device and compile+install every intent, each
   install timed on its own.  A traced set-up first times the compile
   alone with a shadow call. *)
let setup ~sharded ~traced qs =
  let t0 = now () in
  let dev = create_device ~sharded in
  let installs = ref [] and compiles = ref [] and rules = ref [] in
  List.iter
    (fun q ->
      if traced then begin
        let c0 = now () in
        ignore (Newton_compiler.Compose.compile q);
        compiles := (now () -. c0) :: !compiles
      end;
      let before = rules_installed dev in
      let i0 = now () in
      add_query dev q;
      installs := (now () -. i0) :: !installs;
      rules := (rules_installed dev - before) :: !rules)
    qs;
  let seconds = now () -. t0 in
  ( dev,
    { seconds; installs = List.rev !installs; compiles = List.rev !compiles;
      rules = List.rev !rules } )

let plain_sink = function
  | Seq d -> fun packets -> Array.iter (Device.process_packet d) packets
  | Sharded p -> Pdev.process_packets p

(* Accumulators of a traced stream. *)
type acc = {
  mutable pull_s : float;
  mutable replay_s : float;
  mutable batch_ms : float list;
  mutable minor : float;
  mutable arena_s : float;
  mutable shard_s : float;
}

let minor_words () = (Gc.quick_stat ()).Gc.minor_words

(* A traced chunk sink: every call is a span; sharded chunks larger
   than the batch run the two stages process_packets runs for them,
   each timed. *)
let traced_sink spans ~parent acc dev packets =
  let id = Span.reserve spans in
  let m0 = minor_words () in
  let t0 = now () in
  (match dev with
  | Sharded p when Array.length packets > Pengine.batch (Pdev.engine p) ->
      let e = Pdev.engine p in
      let arenas =
        Span.timed spans ~parent:id "runtime.build_arenas" (fun _ ->
            Pengine.build_arenas e packets)
      in
      let t1 = now () in
      Span.timed spans ~parent:id "runtime.replay_arenas" (fun _ ->
          Pengine.replay_arenas e arenas);
      acc.arena_s <- acc.arena_s +. (t1 -. t0);
      acc.shard_s <- acc.shard_s +. (now () -. t1)
  | _ -> plain_sink dev packets);
  let t1 = now () in
  acc.minor <- acc.minor +. (minor_words () -. m0);
  acc.replay_s <- acc.replay_s +. (t1 -. t0);
  acc.batch_ms <- ((t1 -. t0) *. 1e3) :: acc.batch_ms;
  ignore
    (Span.add spans ~id ~parent ~counts:[ ("packets", Array.length packets) ]
       "runtime.sink" ~start:t0 ~stop:t1)

let stream ~capture ~stats source_of sink =
  Capture.with_source ~stats capture (fun src ->
      Stream.run ~depth ~chunk ~pace:Stream.Asap ~policy:Stream.Block ~stats
        (source_of src) sink)

let traced_stream spans ~parent ~capture ~stats dev =
  let acc =
    { pull_s = 0.; replay_s = 0.; batch_ms = []; minor = 0.; arena_s = 0.;
      shard_s = 0. }
  in
  (* Pulls are timed in aggregate: a span per packet would outweigh
     the work it times. *)
  let timed_src src () =
    let t = now () in
    let v = src () in
    acc.pull_s <- acc.pull_s +. (now () -. t);
    v
  in
  let id = Span.reserve spans in
  let start = now () in
  let summary =
    stream ~capture ~stats timed_src (traced_sink spans ~parent:id acc dev)
  in
  ignore
    (Span.add spans ~id ~parent
       ~counts:[ ("decode_us", int_of_float (acc.pull_s *. 1e6)) ]
       "stream.run" ~start ~stop:(now ()));
  let run_span = Option.get (Span.find spans id) in
  let n = float_of_int (max 1 summary.Stream.delivered) in
  ( summary,
    [
      ("ingest.decode_s", acc.pull_s);
      ( "stream.self_s",
        Span.self_time run_span (Span.children spans id) -. acc.pull_s );
      ("runtime.replay_s", acc.replay_s);
      ("runtime.batch_ms.p50", Stat.percentile acc.batch_ms 50.);
      ("runtime.batch_ms.p99", Stat.percentile acc.batch_ms 99.);
      ("runtime.minor_words_per_packet", acc.minor /. n);
      ("runtime.arena_build_s", acc.arena_s);
      ("runtime.shard_replay_s", acc.shard_s);
    ] )

let export ~csv reports =
  let a = Newton_runtime.Analyzer.create () in
  Newton_runtime.Analyzer.ingest a reports;
  let text = Newton_runtime.Analyzer.to_csv (Newton_runtime.Analyzer.results a) in
  let oc = open_out csv in
  output_string oc text;
  close_out oc

(** One cold set-up, made by [newton_perf setup] in a fresh process:
    the set-up's seconds, then each install's. *)
let cold_setup ~sharded =
  let _, s = setup ~sharded ~traced:false (queries ()) in
  s.seconds :: s.installs

let of_child = function
  | seconds :: installs -> { seconds; installs; compiles = []; rules = [] }
  | [] -> assert false

(* One measured pass: set-up, then capture bytes -> exported CSV. *)
let run_pass ~sharded ~traced ~capture ~csv ~cold_setup spans qs =
  let spans = if traced then spans else Span.recorder false in
  let cold = List.init setups_per_pass (fun _ -> of_child (cold_setup ())) in
  Gc.full_major ();
  let dev, local = setup ~sharded ~traced qs in
  let stats = Stats.create () in
  let pass_id = if traced then Span.reserve spans else 0 in
  let t_open = now () in
  let summary, layers =
    if traced then traced_stream spans ~parent:pass_id ~capture ~stats dev
    else (stream ~capture ~stats Fun.id (plain_sink dev), [])
  in
  let t_merge = now () in
  let reports =
    Span.timed spans ~parent:pass_id "runtime.reports" (fun _ ->
        device_reports dev)
  in
  let t_export = now () in
  Span.timed spans ~parent:pass_id "runtime.export" (fun _ -> export ~csv reports);
  let t_end = now () in
  let delivered = summary.Stream.delivered in
  ignore
    (Span.add spans ~id:pass_id "pass" ~start:t_open ~stop:t_end
       ~counts:[ ("packets", delivered) ]);
  let layers =
    if not traced then []
    else
      let loads = shard_loads ~delivered dev in
      let mean =
        float_of_int (Array.fold_left ( + ) 0 loads)
        /. float_of_int (Array.length loads)
      in
      let frames = Stats.get stats Stats.Ingest_frames in
      layers
      @ [
          ( "runtime.shard_load_skew",
            float_of_int (Array.fold_left max 0 loads) /. mean );
          ("runtime.merge_s", t_export -. t_merge);
          ("runtime.export_s", t_end -. t_export);
          ( "ingest.skip_share",
            float_of_int (frames - Stats.get stats Stats.Ingest_decoded)
            /. float_of_int (max 1 frames) );
          ( "runtime.messages_per_kpkt",
            1000. *. float_of_int (List.length reports)
            /. float_of_int (max 1 delivered) );
        ]
  in
  {
    traced;
    local;
    cold;
    pass_s = t_end -. t_open;
    pps = float_of_int delivered /. (t_end -. t_open);
    delivered;
    dropped = summary.Stream.dropped;
    stats;
    reports;
    layers;
  }

(* ---------------- output oracle ---------------- *)

(* References, computed after the measured passes: the sequential
   interpreter over Capture.load of the same file, and the exact
   evaluator per query. *)
let references ~capture qs =
  let packets = Newton_trace.Gen.packets (Capture.load capture) in
  let d = Device.create () in
  List.iter (fun q -> ignore (Device.add_query d q)) qs;
  Array.iter (Device.process_packet d) packets;
  let truth =
    List.map
      (fun q -> (q.Newton_query.Ast.id, Newton_query.Ref_eval.evaluate q packets))
      qs
  in
  (Device.reports d, truth)

let min_recall = 0.999

type check = {
  attempted : int;
  failed : int;
  mismatch : Oracle.diff;
  low_recall : (int * float) list;  (* query id, recall below the floor *)
}

(* Every report missing from or extra to the sequential reference
   fails; so does every truth report missed by a query whose recall is
   below the floor. *)
let check_pass ~reference ~truth reports =
  let d = Oracle.diff ~reference ~measured:reports in
  let attempted = ref (List.length reference + d.Oracle.extra) in
  let failed = ref (Oracle.mismatch d) in
  let low = ref [] in
  List.iter
    (fun (query_id, t) ->
      let r = Oracle.recall ~query_id ~truth:t ~detected:reports in
      attempted := !attempted + r.Oracle.truth;
      let share = Oracle.recall_share r in
      if share < min_recall then begin
        failed := !failed + r.Oracle.missed;
        low := (query_id, share) :: !low
      end)
    truth;
  { attempted = !attempted; failed = !failed; mismatch = d; low_recall = List.rev !low }

(* ---------------- the workload ---------------- *)

let ms xs = List.map (fun s -> s *. 1e3) xs

let median_layer passes name =
  Stat.median (List.filter_map (fun p -> List.assoc_opt name p.layers) passes)

let csv_path ~dir seed = Filename.concat dir (Printf.sprintf "reports-%d.csv" seed)

(** Passes a run makes at least: 6 x 3 x 17 installs leave ten samples
    beyond [submit_tail_ms]'s percentile. *)
let min_passes = 6

let run ~sharded ~workload ~seed ~seconds ~trace ~dir spans =
  let capture = capture_path ~dir seed in
  if not (Sys.file_exists capture) then
    failwith ("capture not prepared: " ^ capture);
  let csv = csv_path ~dir seed in
  let qs = queries () in
  let t0 = now () in
  let peak_rss = ref nan in
  let cold_setup () = Child.setup ~workload ~seed ~dir in
  let rec loop i acc =
    (* a traced run alternates traced and untraced passes *)
    if i >= min_passes && now () -. t0 >= seconds then List.rev acc
    else begin
      let traced = trace && i mod 2 = 0 in
      let p = run_pass ~sharded ~traced ~capture ~csv ~cold_setup spans qs in
      (* what one [newton run --pcap] holds: the process did nothing
         large before its first pass *)
      if i = 0 then peak_rss := Rss.peak_mb ();
      loop (i + 1) (p :: acc)
    end
  in
  let passes = loop 0 [] in
  let reference, truth = references ~capture qs in
  let checks = List.map (fun p -> check_pass ~reference ~truth p.reports) passes in
  let plain = List.filter (fun p -> not p.traced) passes in
  let traced = List.filter (fun p -> p.traced) passes in
  let cold = List.concat_map (fun p -> p.cold) passes in
  let local ps = List.map (fun p -> p.local) ps in
  let installs setups = ms (List.concat_map (fun s -> s.installs) setups) in
  (* installs per second of install time over the cold set-ups *)
  let ops_per_s =
    float_of_int (List.length (installs cold)) /. Stat.sum (installs cold) *. 1e3
  in
  (* packets over the seconds of the passes, from capture to CSV *)
  let pps ps =
    float_of_int (List.fold_left (fun a p -> a + p.delivered) 0 ps)
    /. Stat.sum (List.map (fun p -> p.pass_s) ps)
  in
  let end_to_end =
    [
      ("setup_s", Stat.median (List.map (fun s -> s.seconds) cold));
      ("capture_pps", pps plain);
      ("submit_p50_ms", Stat.median (installs cold));
      ("submit_tail_ms", Stat.percentile (installs cold) Metrics.tail_pct);
      ("intent_ops_per_s", ops_per_s);
      ("peak_rss_mb", !peak_rss);
    ]
  in
  let first = List.hd passes in
  let capture_bytes = (Unix.stat capture).Unix.st_size in
  let frames = Stats.get first.stats Stats.Ingest_frames in
  let per_layer =
    if not trace then []
    else
      let layer_names =
        List.sort_uniq compare (List.concat_map (fun p -> List.map fst p.layers) traced)
      in
      List.map (fun k -> (k, median_layer traced k)) layer_names
      @ [
          ("ingest.bytes_per_packet", float_of_int capture_bytes /. float_of_int (max 1 frames));
          ( "runtime.report_mismatch",
            Stat.median
              (List.map2
                 (fun p c ->
                   if p.traced then Some (float_of_int (Oracle.mismatch c.mismatch))
                   else None)
                 passes checks
              |> List.filter_map Fun.id) );
          ("service.submit_ms.p50", Stat.median (installs (local traced)));
          ("service.submit_ms.p99", Stat.percentile (installs (local traced)) 99.);
          ( "compiler.compile_ms",
            Stat.median (ms (List.concat_map (fun s -> s.compiles) (local traced))) );
          ( "controller.rules_per_submit",
            Stat.median
              (List.map float_of_int
                 (List.concat_map (fun s -> s.rules) (local traced))) );
          ( "trace.overhead.capture_pps",
            Outcome.overhead ~lower_is_better:false ~traced:(pps traced)
              ~untraced:(pps plain) );
          ( "trace.overhead.submit_p50",
            Outcome.overhead ~lower_is_better:true
              ~traced:(Stat.median (installs (local traced)))
              ~untraced:(Stat.median (installs (local plain))) );
        ]
  in
  (* Every pass must reproduce the first one's reports ([consistent]
     below), so one pass's check stands for all of them: attempted and
     failed depend on the seed alone, not on how many passes fit. *)
  let { attempted; failed; _ } = List.hd checks in
  let skips =
    List.map
      (fun (reason, k) -> (reason, Json.Int (Stats.get first.stats k)))
      Stats.
        [ ("non_ip", Ingest_non_ip); ("truncated", Ingest_truncated);
          ("fragment", Ingest_fragment); ("malformed", Ingest_malformed) ]
  in
  let inputs =
    Json.
      [
        ("seed", Int seed);
        ("flows", Int flows);
        ("packets", Int first.delivered);
        ("frames", Int frames);
        ("capture_bytes", Int capture_bytes);
        ("bytes_per_packet", Float (float_of_int capture_bytes /. float_of_int (max 1 frames)));
        ("skips", Obj skips);
        ("intents", List (List.map (fun q -> String q.Newton_query.Ast.name) qs));
        ("resident_intents", Int (List.length qs));
        ("jobs", Int (if sharded then jobs else 1));
        ("batch", Int batch);
        ("queue_depth", Int depth);
        ("chunk", Int chunk);
        ("passes", Int (List.length passes));
      ]
    @ Outcome.tail_inputs (List.length (installs cold))
    @ Outcome.host_inputs ()
  in
  let check_json (p, (c : check)) =
    Json.Obj
      [
        ("traced", Json.Bool p.traced);
        ("setup_s", Json.Float (Stat.median (List.map (fun s -> s.seconds) p.cold)));
        ("capture_pps", Json.Float p.pps);
        ("reports", Json.Int (List.length p.reports));
        ("missing", Json.Int c.mismatch.Oracle.missing);
        ("extra", Json.Int c.mismatch.Oracle.extra);
        ( "low_recall",
          Json.Obj
            (List.map (fun (q, r) -> (Printf.sprintf "Q%d" q, Json.Float r)) c.low_recall) );
      ]
  in
  (* Block never drops, every decoded frame reaches the device, and
     passes over the same capture agree with each other. *)
  let consistent =
    List.for_all
      (fun p ->
        p.dropped = 0
        && p.delivered = Stats.get p.stats Stats.Ingest_decoded
        && p.delivered = first.delivered
        && Oracle.mismatch (Oracle.diff ~reference:first.reports ~measured:p.reports) = 0)
      passes
  in
  {
    Outcome.consistent;
    attempted;
    failed;
    end_to_end;
    (* the sharded path's own layers are only printed where it runs *)
    per_layer =
      List.filter
        (fun (k, _) -> sharded || not (List.mem_assoc k Metrics.sharded_layers))
        per_layer;
    inputs;
    checks =
      [
        ("reference_reports", Json.Int (List.length reference));
        ("passes", Json.List (List.map check_json (List.combine passes checks)));
      ];
  }
