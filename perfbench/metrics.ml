(** The benchmark's metric catalogue: every name a run prints, with its
    unit.  [BENCHMARK.json] lists the same names; a run emits every
    end-to-end metric untraced and every per-layer metric traced. *)

(** Percentile reported as [submit_tail_ms]: the highest one leaving
    at least ten samples beyond it at the benchmark's run length on
    every workload. *)
let tail_pct = 90.

let end_to_end =
  [
    ("setup_s", "s");
    ("capture_pps", "packets/s");
    ("submit_p50_ms", "ms");
    ("submit_tail_ms", "ms");
    ("intent_ops_per_s", "ops/s");
    ("peak_rss_mb", "MB");
  ]

let per_layer =
  [
    ("ingest.decode_s", "s");
    ("ingest.skip_share", "share");
    ("ingest.bytes_per_packet", "bytes");
    ("stream.self_s", "s");
    ("runtime.replay_s", "s");
    ("runtime.batch_ms.p50", "ms");
    ("runtime.batch_ms.p99", "ms");
    ("runtime.minor_words_per_packet", "words");
    ("runtime.merge_s", "s");
    ("runtime.export_s", "s");
    ("runtime.messages_per_kpkt", "count");
    ("service.submit_ms.p50", "ms");
    ("service.submit_ms.p99", "ms");
    ("query.parse_ms", "ms");
    ("compiler.compile_ms", "ms");
    ("analysis.check_ms", "ms");
    ("analysis.admission_ms.p50", "ms");
    ("analysis.admission_ms.max", "ms");
    ("analysis.admission_share", "share");
    ("controller.place_ms", "ms");
    ("controller.install_self_ms", "ms");
    ("controller.rules_per_submit", "count");
    ("controller.modeled_update_ms", "ms");
    ("service.withdraw_ms.p50", "ms");
    ("service.replay_step_ms", "ms");
    ("trace.overhead.capture_pps", "share");
    ("trace.overhead.submit_p50", "share");
  ]

(** Per-layer metrics of the sharded path alone, printed only by
    [pcap_replay_sharded]: that workload is not in [BENCHMARK.json]
    (too unsteady on a 2-core host), and on the listed workloads these
    would read the same constant on every run. *)
let sharded_layers =
  [
    ("runtime.arena_build_s", "s");
    ("runtime.shard_replay_s", "s");
    ("runtime.shard_load_skew", "ratio");
    ("runtime.report_mismatch", "count");
  ]

(** Fill [measured] out to the whole catalogue [names]: a layer a
    workload never calls reads 0.  Names outside the catalogue are a
    bug in the benchmark. *)
let complete names measured =
  List.iter
    (fun (k, _) ->
      if not (List.mem_assoc k names) then
        invalid_arg ("metric outside the catalogue: " ^ k))
    measured;
  List.map
    (fun (k, unit_) ->
      (k, Option.value ~default:0. (List.assoc_opt k measured), unit_))
    names
