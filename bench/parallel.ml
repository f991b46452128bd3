(** Parallel replay speedup: the sequential per-packet engine vs the
    arena-sharded engine at increasing shard counts, over the synthetic
    Zipf-background trace with the default attack suite and all nine
    catalog queries installed.

    The sharded replay is measured per stage — arena build (pre-shard
    the stream into contiguous per-domain {!Newton_packet.Flat} arenas),
    replay (each arena through its shard engine's compiled program), and
    merge (epoch-aligned fold of the per-shard report streams) — so a
    regression is attributable to the stage that caused it.  Speedup is
    t_seq / (arena_build + replay): the merge runs once per observation,
    not per packet, and the sequential baseline's report extraction is
    likewise excluded.

    Shard counts come from NEWTON_BENCH_JOBS (the maximum; powers of
    two up to it are measured, default 8).  The trace defaults to
    ~2.1M packets (NEWTON_BENCH_FLOWS = 150000 flows); CI and the perf
    gate run this default.  The artifact, out/bench_parallel.json, is a
    telemetry snapshot of [newton_bench_parallel_*] gauges and the
    engines' own metrics; bench/compare.ml diffs it against
    bench/baselines/parallel.json.  The sequential row and every shard
    run the engine's one compiled step, so the speedup is the domain
    fan-out net of the arena build: about 1x on a single core, growing
    with real cores. *)

let jobs_to_measure () =
  let max_jobs = Common.getenv_int "NEWTON_BENCH_JOBS" 8 in
  let rec powers j acc = if j >= max_jobs then acc else powers (2 * j) (j :: acc) in
  List.rev (max_jobs :: powers 1 [])

let install_all engine =
  List.iter
    (fun q -> ignore (Newton_runtime.Engine.install engine (Common.compile q)))
    (Common.all_queries ())

let install_all_parallel engine =
  List.iter
    (fun q ->
      ignore (Newton_runtime.Parallel_engine.install engine (Common.compile q)))
    (Common.all_queries ())

let time f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (Unix.gettimeofday () -. t0, v)

type staged = {
  sg_jobs : int;
  sg_build : float;
  sg_replay : float;
  sg_merge : float;
  sg_speedup : float;
  sg_reports : int;
}

let run () =
  Common.banner "Parallel replay speedup (arena-sharded engine, Zipf trace)";
  let flows = Common.getenv_int "NEWTON_BENCH_FLOWS" 150_000 in
  let t_gen, trace = time (fun () -> Common.caida_trace ~flows ()) in
  let packets = Newton_trace.Gen.packets trace in
  let npkts = Array.length packets in
  Common.note
    "trace: %d packets, %d flows (generated in %.1fs); 9 catalog queries \
     installed"
    npkts flows t_gen;
  (* Warm-up: one untimed arena build, so the first timed build does
     not pay the process's cold-page cost for the arena buffers (malloc
     recycles them across configurations once the full_major below has
     collected the previous set). *)
  ignore (Sys.opaque_identity (Newton_runtime.Arena.build1 packets));
  (* Sequential baseline: the plain per-switch engine, driven one
     packet at a time. *)
  let seq = Newton_runtime.Engine.create ~switch_id:0 () in
  install_all seq;
  Gc.full_major ();
  let t_seq, () =
    time (fun () -> Array.iter (Newton_runtime.Engine.process_packet seq) packets)
  in
  let seq_reports = List.length (Newton_runtime.Engine.reports seq) in
  let t =
    Common.T.create
      ~aligns:
        [ Common.T.Right; Common.T.Right; Common.T.Right; Common.T.Right;
          Common.T.Right; Common.T.Right; Common.T.Right; Common.T.Right ]
      [ "jobs"; "build"; "replay"; "merge"; "total"; "speedup"; "pkts/s";
        "reports" ]
  in
  Common.T.add_row t
    [ "seq"; "-"; Printf.sprintf "%.3f" t_seq; "-"; Printf.sprintf "%.3f" t_seq;
      "1.00x"; Printf.sprintf "%.0f" (float_of_int npkts /. t_seq);
      string_of_int seq_reports ];
  let last_par = ref None in
  let results =
    List.map
      (fun jobs ->
        let par =
          Newton_runtime.Parallel_engine.create ~jobs ~switch_id:0 ()
        in
        install_all_parallel par;
        last_par := Some (jobs, par);
        (* Collect the previous configuration's arenas outside the
           timed region; the timed build then reuses their memory
           instead of paying page faults and GC pacing for them. *)
        Gc.full_major ();
        let t_build, arenas =
          time (fun () -> Newton_runtime.Parallel_engine.build_arenas par packets)
        in
        let t_replay, () =
          time (fun () -> Newton_runtime.Parallel_engine.replay_arenas par arenas)
        in
        let t_merge, reports =
          time (fun () -> Newton_runtime.Parallel_engine.reports par)
        in
        let reports = List.length reports in
        let total = t_build +. t_replay in
        let speedup = t_seq /. total in
        Common.T.add_row t
          [ string_of_int jobs; Printf.sprintf "%.3f" t_build;
            Printf.sprintf "%.3f" t_replay; Printf.sprintf "%.3f" t_merge;
            Printf.sprintf "%.3f" total; Printf.sprintf "%.2fx" speedup;
            Printf.sprintf "%.0f" (float_of_int npkts /. total);
            string_of_int reports ];
        { sg_jobs = jobs; sg_build = t_build; sg_replay = t_replay;
          sg_merge = t_merge; sg_speedup = speedup; sg_reports = reports })
      (jobs_to_measure ())
  in
  Common.T.print t;
  Common.note
    "flow sharding splits cross-flow aggregates across shards, so the \
     multi-query report count drops vs seq (docs/PARALLELISM.md); per-query \
     equivalence uses branch-key sharding (test suite 'parallel')";
  Common.maybe_dat t "parallel_speedup";
  (* The artifact, read by bench/compare.ml (the CI perf gate): the
     bench's figures, then the sequential engine's telemetry next to the
     widest sharded run's merged telemetry, so CI can diff counter
     totals (and sketch health) between the two. *)
  let module M = Newton_telemetry.Metric in
  let seq_l = [ ("engine", "seq") ] in
  let jobs r = ("jobs", string_of_int r.sg_jobs) in
  let sharded j = [ ("engine", "sharded"); ("jobs", string_of_int j) ] in
  let stage r stage v = M.v ~labels:[ jobs r; ("stage", stage) ] v in
  let figures =
    [
      Common.gauge "parallel_trace_packets" "Packets in the replayed trace"
        [ M.vi npkts ];
      Common.gauge "parallel_trace_flows" "Flows in the replayed trace"
        [ M.vi flows ];
      Common.gauge "parallel_queries" "Catalog queries installed"
        [ M.vi (List.length (Common.all_queries ())) ];
      Common.gauge "parallel_seconds"
        "Replay seconds (sharded: arena build + replay)"
        (M.v ~labels:seq_l t_seq
        :: List.map
             (fun r -> M.v ~labels:(sharded r.sg_jobs) (r.sg_build +. r.sg_replay))
             results);
      Common.gauge "parallel_reports" "Reports the replay emitted"
        (M.vi ~labels:seq_l seq_reports
        :: List.map (fun r -> M.vi ~labels:(sharded r.sg_jobs) r.sg_reports) results);
      Common.gauge "parallel_speedup"
        "Sequential seconds over sharded seconds"
        (List.map (fun r -> M.v ~labels:[ jobs r ] r.sg_speedup) results);
      Common.gauge "parallel_stage_seconds" "Seconds of one sharded-replay stage"
        (List.concat_map
           (fun r ->
             [ stage r "arena_build" r.sg_build; stage r "replay" r.sg_replay;
               stage r "merge" r.sg_merge ])
           results);
    ]
  in
  Common.write_snapshot "parallel"
    (Newton_telemetry.Snapshot.merge_all
       [ figures;
         Newton_runtime.Introspect.engine_metrics ~labels:seq_l seq;
         (match !last_par with
         | Some (jobs, par) ->
             Newton_runtime.Introspect.parallel_metrics ~labels:(sharded jobs) par
         | None -> Newton_telemetry.Snapshot.empty) ])
