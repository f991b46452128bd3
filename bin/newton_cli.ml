(** newton — command-line front-end to the Newton monitoring system.

    Subcommands:
    - [queries]            list the built-in query catalog (Table 2)
    - [compile -q N]       show how a query compiles to module rules
    - [run -q N,M ...]     run queries on one switch over a synthetic trace
    - [netrun -q N ...]    deploy network-wide and run over a topology
    - [p4 emit|run|diff]   emit the newton.p4 pipeline + rules, interpret
                           it, and differentially test it against the
                           engine *)

open Cmdliner
open Newton
open Cli_terms

(* ---------------- queries ---------------- *)

let cmd_queries =
  let run () =
    List.iter
      (fun q ->
        Printf.printf "Q%d  %-22s %s\n" q.Query.id q.Query.name q.Query.description)
      (Catalog.all ())
  in
  Cmd.v (Cmd.info "queries" ~doc:"List the built-in query catalog (paper Table 2)")
    Term.(const run $ const ())

(* ---------------- compile ---------------- *)

let cmd_compile =
  let run ids show_slots =
    match lookup_queries ids with
    | Error msg -> prerr_endline msg; exit 2
    | Ok qs ->
        List.iter
          (fun q ->
            let base =
              Compiler.compile ~options:Compile_options.baseline_options q
            in
            let opt = Compiler.compile q in
            print_endline (Query.to_string q);
            Printf.printf
              "  naive: %d modules / %d stages; optimized: %d modules / %d \
               stages / %d table rules\n"
              base.Compiler.stats.Compiler.modules_naive
              base.Compiler.stats.Compiler.stages_naive
              opt.Compiler.stats.Compiler.modules_shared
              opt.Compiler.stats.Compiler.stages opt.Compiler.stats.Compiler.rules;
            if show_slots then
              Array.iteri
                (fun b slots ->
                  Printf.printf "  branch %d:\n" b;
                  List.iter
                    (fun s ->
                      Printf.printf "    %s\n" (Newton_compiler.Ir.slot_to_string s))
                    slots)
                opt.Compiler.branches;
            print_newline ())
          qs
  in
  let slots_arg =
    Arg.(value & flag & info [ "slots" ] ~doc:"Dump the module-slot layout.")
  in
  Cmd.v (Cmd.info "compile" ~doc:"Compile queries and show module/stage usage")
    Term.(const run $ queries_arg $ slots_arg)

(* ---------------- p4 (emission + interpretation) ---------------- *)

(* Shared vocabulary of the p4 subcommands: pipeline layout knobs and
   the Q1-Q17 selector. *)
let p4_stages_arg =
  Arg.(value & opt int Newton_p4gen.Emit.default_layout.Newton_p4gen.Emit.stages
       & info [ "stages" ] ~docv:"N" ~doc:"Stages in the emitted module layout.")

let p4_registers_arg =
  Arg.(value
       & opt int Newton_p4gen.Emit.default_layout.Newton_p4gen.Emit.registers
       & info [ "registers" ] ~docv:"N"
           ~doc:"32-bit words per allocated state array.")

let p4_all_arg =
  Arg.(value & flag
       & info [ "all" ] ~doc:"Select every catalog query (Q1-Q17).")

let p4_layout stages registers =
  { Newton_p4gen.Emit.default_layout with Newton_p4gen.Emit.stages; registers }

let p4_ids ids all =
  if all then
    List.map (fun q -> q.Query.id) (Catalog.all () @ Catalog.extras ())
  else ids

let write_file path text =
  let oc = open_out path in
  output_string oc text;
  close_out oc

let cmd_p4_emit =
  let run ids all program_out rules_out stages registers lint =
    let layout = p4_layout stages registers in
    match lookup_queries (p4_ids ids all) with
    | Error msg -> prerr_endline msg; exit 2
    | Ok qs ->
        (* One allocator across all queries so the deployment is
           co-resident: state arrays never overlap, and the register
           file is sized to the sum (never below the per-layout
           default, so single-query programs stay byte-identical). *)
        let alloc = Newton_p4gen.Rules.allocator ~state_words:max_int layout in
        let entries =
          List.concat
            (List.mapi
               (fun i (q, compiled) ->
                 match
                   Newton_p4gen.Rules.entries ~class_id:(1 + (i * 10)) ~layout
                     ~alloc compiled
                 with
                 | Ok es -> es
                 | Error issue ->
                     Printf.eprintf "newton p4: Q%d has no rule encoding: %s\n"
                       q.Query.id
                       (Newton_p4gen.Rules.issue_to_string issue);
                     exit 1)
               (admit_all qs))
        in
        let state_words =
          max
            (Newton_p4gen.Emit.state_words_of_layout layout)
            (Newton_p4gen.Rules.words_used alloc)
        in
        let program = Newton_p4gen.Emit.program ~layout ~state_words () in
        let rules_json = Newton_p4gen.Rules.to_json entries in
        (match program_out with
        | Some "-" | None -> print_string program
        | Some path ->
            write_file path program;
            Printf.eprintf "program (%d queries, %d state words) written to %s\n"
              (List.length qs) state_words path);
        (match rules_out with
        | Some path ->
            write_file path rules_json;
            Printf.eprintf "%d rule entries written to %s\n"
              (List.length entries) path
        | None -> ());
        if lint then begin
          (* Lint by deploying: parse the program, instantiate it in the
             interpreter and install the rule document; the first
             problem fails the lint. *)
          let open Newton_p4sim in
          let deploy () =
            let interp = Interp.create (P4parse.parse program) in
            Interp.install interp (P4rules.of_json rules_json)
          in
          let fail msg = Printf.eprintf "lint: %s\n" msg; exit 1 in
          match deploy () with
          | () ->
              Printf.eprintf "lint clean: %d entries against the emitted program\n"
                (List.length entries)
          | exception P4parse.Parse_error { line; msg } ->
              fail (Printf.sprintf "program line %d: %s" line msg)
          | exception P4rules.Bad_document msg ->
              fail ("malformed rule document: " ^ msg)
          | exception Interp.Install_error msg -> fail msg
        end
  in
  let program_out_arg =
    Arg.(value & opt (some string) None
         & info [ "o"; "program-out" ] ~docv:"FILE"
             ~doc:"Write the P4 program to a file instead of stdout ('-' for \
                   stdout).")
  in
  let rules_out_arg =
    Arg.(value & opt (some string) None
         & info [ "rules-out" ] ~docv:"FILE"
             ~doc:"Write the combined runtime rule JSON for the selected \
                   queries to a file.")
  in
  let lint_arg =
    Arg.(value & flag
         & info [ "lint" ]
             ~doc:"Install the rule entries into the P4 interpreter running \
                   the emitted program; report the first problem and exit 1.")
  in
  Cmd.v
    (Cmd.info "emit"
       ~doc:
         "Emit the complete self-contained newton.p4 program (and the \
          runtime rule JSON configuring the selected queries on it)")
    Term.(
      const run $ queries_arg $ p4_all_arg $ program_out_arg $ rules_out_arg
      $ p4_stages_arg $ p4_registers_arg $ lint_arg)

(* Replay a packet list through the differential harness for each
   query, printing one line per query; returns the number of queries
   whose report multisets diverged, were both empty, or had no rule
   encoding. *)
let p4_replay ~layout ~verbose admitted packets =
  let bad = ref 0 in
  List.iter
    (fun (q, compiled) ->
      match Newton_p4sim.Diff.run_query ~layout compiled packets with
      | Error issue ->
          incr bad;
          Printf.printf "Q%d: no rule encoding: %s\n" q.Query.id
            (Newton_p4gen.Rules.issue_to_string issue)
      | Ok r ->
          if not (Newton_p4sim.Diff.matched r) then incr bad;
          print_endline (Newton_p4sim.Diff.describe r);
          if verbose then
            List.iter
              (fun (why, n) -> Printf.printf "    skipped %dx: %s\n" n why)
              r.Newton_p4sim.Diff.skip_reasons)
    admitted;
  !bad

let cmd_p4_run =
  let run ids profile flows seed attacks verbose pcap stages registers =
    match lookup_queries ids with
    | Error msg -> prerr_endline msg; exit 2
    | Ok qs ->
        let admitted = admit_all qs in
        let layout = p4_layout stages registers in
        let trace = make_trace ?pcap_in:pcap profile flows seed attacks in
        let packets = Array.to_list (Newton_trace.Gen.packets trace) in
        Printf.printf "trace: %d packets (%s)\n" (Trace.length trace)
          (Trace_profile.to_string (Trace.profile trace));
        List.iter
          (fun (q, compiled) ->
            match Newton_p4sim.Diff.run_query ~layout compiled packets with
            | Error issue ->
                Printf.eprintf "newton p4: Q%d has no rule encoding: %s\n"
                  q.Query.id
                  (Newton_p4gen.Rules.issue_to_string issue);
                exit 1
            | Ok r ->
                Printf.printf
                  "Q%d: %d/%d packets interpreted (%d skipped), %d reports\n"
                  q.Query.id r.Newton_p4sim.Diff.replayed
                  r.Newton_p4sim.Diff.total r.Newton_p4sim.Diff.skipped
                  (List.length r.Newton_p4sim.Diff.p4_reports);
                if verbose then
                  List.iter
                    (fun rep ->
                      print_endline ("  " ^ Newton_query.Report.to_string rep))
                    r.Newton_p4sim.Diff.p4_reports)
          admitted
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Replay a trace through the interpreted P4 pipeline and print the \
          digest-decoded reports")
    Term.(
      const run $ queries_arg $ profile_arg $ flows_arg $ seed_arg
      $ attacks_arg $ verbose_arg $ pcap_arg $ p4_stages_arg
      $ p4_registers_arg)

let cmd_p4_diff =
  let run ids all coverage profile flows seed attacks verbose pcap stages
      registers =
    match lookup_queries (p4_ids ids all) with
    | Error msg -> prerr_endline msg; exit 2
    | Ok qs ->
        let admitted = admit_all qs in
        let layout = p4_layout stages registers in
        let packets =
          if coverage then Newton_p4sim.Corpus.coverage_packets ~seed ()
          else
            Array.to_list
              (Newton_trace.Gen.packets
                 (make_trace ?pcap_in:pcap profile flows seed attacks))
        in
        Printf.printf "corpus: %d packets\n" (List.length packets);
        let bad = p4_replay ~layout ~verbose admitted packets in
        if bad > 0 then begin
          Printf.eprintf
            "newton p4 diff: %d quer%s diverged or reported nothing\n" bad
            (if bad = 1 then "y" else "ies");
          exit 1
        end
  in
  let coverage_arg =
    Arg.(value & flag
         & info [ "coverage-corpus" ]
             ~doc:
               "Replay the pinned mixed v4/v6/ICMPv6/tunnel corpus on which \
                every catalog query reports at least once (overrides --pcap \
                and the trace-shaping flags except --seed).")
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Differentially test the interpreted P4 pipeline against the \
          simulator engine: replay the same trace through both and require \
          identical, non-empty report multisets (exit 1 on divergence or \
          when neither side reports)")
    Term.(
      const run $ queries_arg $ p4_all_arg $ coverage_arg $ profile_arg
      $ flows_arg $ seed_arg $ attacks_arg $ verbose_arg $ pcap_arg
      $ p4_stages_arg $ p4_registers_arg)

let cmd_p4 =
  Cmd.group
    (Cmd.info "p4"
       ~doc:
         "Emit the static newton.p4 pipeline and runtime rules, interpret \
          it, and differentially test it against the simulator engine")
    [ cmd_p4_emit; cmd_p4_run; cmd_p4_diff ]

(* ---------------- run (device level) ---------------- *)

(* One query: shard on its aggregation key so shard-merged results
   match the sequential engine; several queries: 5-tuple sharding
   (divergence documented in docs/PARALLELISM.md).  The note goes to
   stderr so that `stats` keeps its snapshot alone on stdout. *)
let shard_key_for admitted =
  match admitted with
  | [ (_, compiled) ] -> Newton_runtime.Shard.for_compiled compiled
  | _ ->
      prerr_endline
        "note: several queries — 5-tuple sharding; cross-flow aggregates \
         split across shards (docs/PARALLELISM.md)";
      Newton_runtime.Shard.Flow

let cmd_run =
  let run ids dsl profile flows seed attacks verbose jobs batch pcap iopts
      queue =
    match gather_queries ids dsl with
    | Error msg -> prerr_endline msg; exit 2
    | Ok qs ->
        let admitted = admit_all qs in
        (* Set up the engine (sequential or sharded) behind a chunk sink
           that the stream feeds from a capture or a synthetic trace. *)
        let sink_fn, finish =
          if jobs = 1 then begin
            let device = Device.create () in
            List.iter
              (fun (q, compiled) ->
                let _, lat = Device.install device compiled in
                Printf.printf "installed Q%d (%s) in %.1f ms\n" q.Query.id
                  q.Query.name (lat *. 1e3))
              admitted;
            ( (fun batch -> Array.iter (Device.process_packet device) batch),
              fun () -> Device.reports device )
          end
          else begin
            let shard_key = shard_key_for admitted in
            let pdev = Parallel_device.create ~jobs ~batch ~shard_key () in
            List.iter
              (fun (q, compiled) ->
                ignore (Parallel_device.install pdev compiled);
                Printf.printf "installed Q%d (%s) on %d shards\n" q.Query.id
                  q.Query.name jobs)
              admitted;
            ( Parallel_device.process_packets pdev,
              fun () ->
                Printf.printf "shard loads: [%s] (%s)\n"
                  (String.concat "; "
                     (Array.to_list
                        (Array.map string_of_int
                           (Parallel_device.shard_loads pdev))))
                  (Newton_runtime.Parallel_engine.to_string
                     (Parallel_device.engine pdev));
                Parallel_device.reports pdev )
          end
        in
        let source = source_of pcap profile flows seed attacks in
        (match source with
        | Synthetic trace ->
            Printf.printf "trace: %d packets (%s)\n" (Trace.length trace)
              (Trace_profile.to_string (Trace.profile trace))
        | Capture _ -> ());
        let stats = Telemetry.Stats.create () in
        let summary = stream ~opts:iopts ~queue ~stats source sink_fn in
        (match source with
        | Synthetic _ -> print_drops stdout summary
        | Capture _ -> print_ingest_summary stats summary);
        let n_packets = summary.Ingest.Stream.delivered in
        let reports = finish () in
        Printf.printf "monitoring messages: %d (%.4f%% of packets)\n"
          (List.length reports)
          (100.0 *. float_of_int (List.length reports)
          /. float_of_int (max 1 n_packets));
        if verbose then
          List.iter (fun r -> print_endline ("  " ^ Report.to_string r)) reports
        else begin
          print_string (Newton_query.Series.summary (Newton_query.Series.of_reports reports));

          List.iter
            (fun q ->
              let mine =
                List.filter (fun r -> r.Report.query_id = q.Query.id) reports
              in
              let keys = Report.reported_keys mine in
              Printf.printf "  Q%d: %d reports, %d distinct keys%s\n" q.Query.id
                (List.length mine) (List.length keys)
                (match keys with
                | k :: _ when Array.length k > 0 ->
                    Printf.sprintf " (first: %s)" (Packet.ip_to_string k.(0))
                | _ -> ""))
            qs
        end
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run queries on a single switch over a synthetic trace or an \
          ingested pcap capture")
    Term.(
      const run $ queries_arg $ dsl_arg $ profile_arg $ flows_arg $ seed_arg
      $ attacks_arg $ verbose_arg $ jobs_arg $ batch_arg $ pcap_arg
      $ ingest_opts_term $ queue_term)

(* ---------------- stats (telemetry snapshot) ---------------- *)

let cmd_stats =
  let run ids dsl profile flows seed attacks jobs batch format output pcap
      iopts queue =
    match gather_queries ids dsl with
    | Error msg -> prerr_endline msg; exit 2
    | Ok qs ->
        let admitted = admit_all qs in
        let sink_fn, metrics_fn =
          if jobs = 1 then begin
            let device = Device.create () in
            List.iter (fun (_, c) -> ignore (Device.install device c)) admitted;
            ( (fun batch -> Array.iter (Device.process_packet device) batch),
              fun () -> Device.metrics device )
          end
          else begin
            let shard_key = shard_key_for admitted in
            let pdev = Parallel_device.create ~jobs ~batch ~shard_key () in
            List.iter (fun (_, c) -> ignore (Parallel_device.install pdev c)) admitted;
            ( Parallel_device.process_packets pdev,
              fun () -> Parallel_device.metrics pdev )
          end
        in
        let source = source_of pcap profile flows seed attacks in
        let stats = Telemetry.Stats.create () in
        let summary = stream ~opts:iopts ~queue ~stats source sink_fn in
        (match source with
        | Synthetic _ -> print_drops stderr summary
        | Capture _ -> ());
        (* Ingestion health (drops, queue depth, inter-arrival gaps) rides
           along in the same snapshot for either source, labelled
           stage=ingest to keep it apart from the engine-side counter
           families. *)
        let snap =
          Telemetry.Snapshot.merge (metrics_fn ())
            (Telemetry.Snapshot.of_sink ~labels:[ ("stage", "ingest") ] stats)
        in
        let text =
          match format with
          | `Json -> Telemetry.Export.to_json_string snap ^ "\n"
          | `Prometheus -> Telemetry.Export.to_prometheus snap
        in
        match output with
        | Some path ->
            let oc = open_out path in
            output_string oc text;
            close_out oc;
            Printf.eprintf "stats written to %s\n" path
        | None -> print_string text
  in
  let format_arg =
    Arg.(value
         & opt (enum [ ("json", `Json); ("prometheus", `Prometheus); ("prom", `Prometheus) ]) `Json
         & info [ "format" ] ~docv:"FMT"
             ~doc:"Output format: json or prometheus.")
  in
  let output_arg =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE"
             ~doc:"Write the snapshot to a file instead of stdout.")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Run queries over a trace and export the telemetry snapshot \
          (counters, rule utilization, sketch health) as JSON or Prometheus \
          text")
    Term.(
      const run $ queries_arg $ dsl_arg $ profile_arg $ flows_arg $ seed_arg
      $ attacks_arg $ jobs_arg $ batch_arg $ format_arg $ output_arg
      $ pcap_arg $ ingest_opts_term $ queue_term)

(* ---------------- netrun (network-wide) ---------------- *)

let fail_arg =
  Arg.(value & opt (some (pair int int)) None
       & info [ "fail-link" ] ~docv:"A,B"
           ~doc:"Fail the switch link (A,B) halfway through the trace.")

(* ---------------- check (static analysis) ---------------- *)

let cmd_check =
  let run ids dsl all json strict output topo stages registers expected_keys
      witness =
    (* No explicit selection means "check everything", like --all. *)
    let whole_catalog = all || (ids = [] && dsl = []) in
    let queries =
      match gather_queries (if whole_catalog then [] else ids) dsl with
      | Error msg ->
          prerr_endline msg;
          exit 2
      | Ok qs ->
          if whole_catalog then Catalog.all () @ Catalog.extras () @ qs else qs
    in
    let cfg =
      {
        Analysis.Pass.default_config with
        Analysis.Pass.options =
          { Compile_options.default_options with Compile_options.registers };
        expected_keys;
      }
    in
    (* With --topo, each compiled program is also judged against its
       placement, so slice-boundary and switch commitment checks run
       against the actual deployment shape. *)
    let target =
      Option.map
        (fun topo c ->
          try
            Some
              (Newton_controller.Deploy.target_of_placement
                 (Newton_controller.Placement.place ~stages_per_switch:stages
                    ~topo c))
          with _ -> None)
        topo
    in
    let diags = Analysis.Check.check_queries ~cfg ?target queries in
    let diags = List.sort Analysis.Diag.compare diags in
    let e, w, i = Analysis.Check.severity_counts diags in
    let text =
      if json then
        Newton_util.Json.to_string
          (Analysis.Check.report_to_json ~witness diags)
        ^ "\n"
      else
        (if diags = [] then ""
         else Analysis.Check.explain ~witness diags ^ "\n")
        ^ Printf.sprintf "checked %d queries: %d errors, %d warnings, %d infos\n"
            (List.length queries) e w i
    in
    (match output with
    | Some path ->
        let oc = open_out path in
        output_string oc text;
        close_out oc;
        Printf.eprintf "check report written to %s\n" path
    | None -> print_string text);
    exit (Analysis.Check.exit_code ~strict diags)
  in
  let check_queries_arg =
    Arg.(value & opt (list int) []
         & info [ "q"; "queries" ] ~docv:"IDS"
             ~doc:"Comma-separated catalog query ids to check (default: the \
                   whole catalog).")
  in
  let all_arg =
    Arg.(value & flag
         & info [ "all" ]
             ~doc:"Check the full catalog (Q1-Q9) plus the extension queries.")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON.")
  in
  let strict_arg =
    Arg.(value & flag
         & info [ "strict" ]
             ~doc:"Treat warnings as errors: any warning makes the exit code 2.")
  in
  let output_arg =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE"
             ~doc:"Write the report to a file instead of stdout.")
  in
  let check_topo_arg =
    Arg.(value & opt (some topo_conv) None
         & info [ "topo" ] ~docv:"TOPO"
             ~doc:"Also verify placement against a topology (linear:N, \
                   fat-tree:K, bypass[:S:L], or isp); off by default.")
  in
  let registers_arg =
    Arg.(value
         & opt int Compile_options.default_options.Compile_options.registers
         & info [ "registers" ] ~docv:"N"
             ~doc:"Registers per state-bank array assumed by the sketch-health \
                   pass.")
  in
  let keys_arg =
    Arg.(value & opt int Analysis.Pass.default_config.Analysis.Pass.expected_keys
         & info [ "expected-keys" ] ~docv:"N"
             ~doc:"Expected distinct keys per window, used for sketch \
                   false-positive estimates.")
  in
  let witness_arg =
    Arg.(value & flag
         & info [ "witness" ]
             ~doc:"Print (and embed in JSON) the concrete witness packets the \
                   exact packet-space passes attach to their findings.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Statically verify queries (structure, field widths, predicates, \
          exact packet-space satisfiability/overlap, dataflow, thresholds, \
          sketch health, capacity, conflicts, cross-cut ordering) and \
          report structured diagnostics")
    Term.(
      const run $ check_queries_arg $ dsl_arg $ all_arg $ json_arg $ strict_arg
      $ output_arg $ check_topo_arg $ stages_arg $ registers_arg $ keys_arg
      $ witness_arg)

let cmd_netrun =
  let run ids topo stages profile flows seed attacks fail pcap =
    match lookup_queries ids with
    | Error msg -> prerr_endline msg; exit 2
    | Ok qs ->
        let net = Network.create topo in
        let deploy = Network.controller net in
        Printf.printf "topology: %s\n" (Topo.to_string topo);
        List.iter
          (fun q ->
            match
              Result.bind
                (Network.Deploy.admit deploy ~stages_per_switch:stages q)
                (fun (admitted, _) -> Network.Deploy.install deploy admitted)
            with
            | Ok (_, lat) ->
                Printf.printf "deployed Q%d network-wide in %.1f ms\n"
                  q.Query.id (lat *. 1e3)
            | Error diags ->
                prerr_endline (Analysis.Check.explain diags);
                prerr_endline "newton: deployment rejected by static analysis";
                exit 2)
          qs;
        let trace = make_trace ?pcap_in:pcap profile flows seed attacks in
        Network.process_trace net trace;
        (match fail with
        | None -> ()
        | Some (a, b) ->
            Printf.printf "failing link (%d,%d) and replaying...\n" a b;
            Network.fail_link net (a, b);
            Network.process_trace net trace);
        Printf.printf "monitoring messages: %d; SP bandwidth overhead: %.3f%%\n"
          (Network.message_count net)
          (100.0 *. Network.sp_overhead_ratio net);
        let keys = Report.reported_keys (Network.reports net) in
        Printf.printf "distinct reported keys: %d\n" (List.length keys)
  in
  Cmd.v (Cmd.info "netrun" ~doc:"Deploy queries network-wide and run a trace")
    Term.(
      const run $ queries_arg $ topo_arg $ stages_arg $ profile_arg $ flows_arg
      $ seed_arg $ attacks_arg $ fail_arg $ pcap_arg)

(* ---------------- chaos (failure-injection differential) ---------------- *)

let cmd_chaos =
  let run ids topo stages profile flows seed attacks fails repairs strict
      output pcap =
    match lookup_queries ids with
    | Error msg -> prerr_endline msg; exit 2
    | Ok qs ->
        let trace = make_trace ?pcap_in:pcap profile flows seed attacks in
        let pkts = Trace.packets trace in
        if Array.length pkts = 0 then begin
          prerr_endline "chaos: empty trace";
          exit 1
        end;
        let t_last = Packet.ts pkts.(Array.length pkts - 1) in
        let events =
          let at frac = frac *. t_last in
          List.map
            (fun (s, f) -> { Chaos.at = at f; switch = s; action = `Fail })
            fails
          @ List.map
              (fun (s, f) -> { Chaos.at = at f; switch = s; action = `Repair })
              repairs
        in
        let events =
          if events <> [] then events
          else
            (* Default schedule: fail the lowest-id non-edge switch
               halfway through the trace. *)
            let edges = Topo.edge_switches topo in
            match
              List.find_opt (fun s -> not (List.mem s edges)) (Topo.switches topo)
            with
            | Some s ->
                Printf.eprintf "chaos: no schedule given; failing switch %d at 50%%\n" s;
                [ { Chaos.at = t_last /. 2.0; switch = s; action = `Fail } ]
            | None ->
                prerr_endline "chaos: no non-edge switch to fail; use --fail";
                exit 1
        in
        let res =
          Chaos.run ~stages_per_switch:stages ~topo ~queries:qs ~events trace
        in
        let unexpl = List.length (Chaos.unexplained res) in
        Printf.printf
          "topology: %s\nbaseline reports: %d\nchaos reports: %d\nmatched: %d\n\
           diffs: %d (%d unexplained)\n"
          (Topo.name topo) res.Chaos.baseline_reports res.Chaos.chaos_reports
          res.Chaos.matched
          (List.length res.Chaos.diffs)
          unexpl;
        List.iter
          (fun (r : Network.Deploy.recovery) ->
            Printf.printf
              "%s switch %d: %d slices migrated, %d cells moved, %d software \
               fallbacks, %d rules installed, %.2f ms\n"
              (match r.Network.Deploy.r_event with `Fail -> "fail" | `Repair -> "repair")
              r.Network.Deploy.r_switch r.Network.Deploy.r_slices_migrated
              r.Network.Deploy.r_cells_moved r.Network.Deploy.r_software_fallbacks
              r.Network.Deploy.r_rules_installed
              (r.Network.Deploy.r_latency *. 1e3))
          res.Chaos.recoveries;
        (match output with
        | Some path ->
            let oc = open_out path in
            output_string oc (Chaos.to_json_string res);
            output_string oc "\n";
            close_out oc;
            Printf.eprintf "chaos diff written to %s\n" path
        | None -> print_endline (Chaos.to_json_string res));
        if strict && res.Chaos.silent <> [] then
          Printf.eprintf "chaos: no baseline report for %s: the diff is vacuous\n"
            (String.concat ", " (List.map (Printf.sprintf "Q%d") res.Chaos.silent));
        if strict && unexpl > 0 then
          Printf.eprintf "chaos: %d unexplained report diffs\n" unexpl;
        if strict && (unexpl > 0 || res.Chaos.silent <> []) then exit 1
  in
  let all_queries_arg =
    let doc = "Comma-separated query ids (default: the full catalog)." in
    Arg.(value
         & opt (list int) (List.map (fun q -> q.Query.id) (Catalog.all ()))
         & info [ "q"; "queries" ] ~docv:"IDS" ~doc)
  in
  let chaos_topo_arg =
    Arg.(value & opt topo_conv (Topo.bypass ())
         & info [ "topo" ] ~docv:"TOPO"
             ~doc:"Topology: linear:N, fat-tree:K, bypass[:S:L], or isp. \
                   The default bypass topology reroutes deterministically, \
                   so unexplained diffs indicate real monitoring loss.")
  in
  let chaos_stages_arg =
    Arg.(value & opt int 4
         & info [ "stages-per-switch" ] ~docv:"N"
             ~doc:"Stages each switch grants Newton; small values force \
                   multi-slice placements that exercise state migration.")
  in
  let fail_events_arg =
    Arg.(value & opt_all (pair ~sep:'@' int float) []
         & info [ "fail" ] ~docv:"SWITCH@FRAC"
             ~doc:"Fail a switch at a fraction of the trace duration \
                   (e.g. 2@0.5); repeatable.")
  in
  let repair_events_arg =
    Arg.(value & opt_all (pair ~sep:'@' int float) []
         & info [ "repair" ] ~docv:"SWITCH@FRAC"
             ~doc:"Repair a switch at a fraction of the trace duration; \
                   repeatable.")
  in
  let strict_arg =
    Arg.(value & flag
         & info [ "strict" ]
             ~doc:"Exit non-zero if any report diff is unexplained, or if \
                   a query made no report in the failure-free run.")
  in
  let output_arg =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE"
             ~doc:"Write the JSON diff artifact to a file instead of stdout.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Replay a trace with a switch fail/repair schedule and diff the \
          reports against a failure-free run")
    Term.(
      const run $ all_queries_arg $ chaos_topo_arg $ chaos_stages_arg
      $ profile_arg $ flows_arg $ seed_arg $ attacks_arg $ fail_events_arg
      $ repair_events_arg $ strict_arg $ output_arg $ pcap_arg)

(* ---------------- gen (trace generation / export) ---------------- *)

let cmd_gen =
  let run profile flows seed attacks output =
    if Filename.check_suffix (String.lowercase_ascii output) ".pcapng" then begin
      Printf.eprintf
        "newton gen: %s: gen writes classic pcap, not pcapng; name the \
         output FILE.pcap\n"
        output;
      exit 2
    end;
    let trace = make_trace profile flows seed attacks in
    (try Ingest.Capture.export trace output
     with Ingest.Capture.Format_error m ->
       Printf.eprintf "pcap export: %s\n" m;
       exit 1);
    Printf.printf "%d packets written to %s (pcap)\n" (Trace.length trace)
      output
  in
  let output_arg =
    Arg.(required & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE"
             ~doc:"Output pcap file; a $(b,.pcapng) name is refused.")
  in
  Cmd.v
    (Cmd.info "gen"
       ~doc:
         "Generate a synthetic trace and write it as a standard pcap file \
          (opens in tcpdump/Wireshark)")
    Term.(
      const run $ profile_arg $ flows_arg $ seed_arg $ attacks_arg
      $ output_arg)

(* ---------------- pcap-info ---------------- *)

let cmd_pcap_info =
  let run path =
    match Ingest.Capture.info path with
    | exception Ingest.Capture.Format_error m ->
        Printf.eprintf "pcap: %s: %s\n" path m;
        exit 1
    | i ->
        let open Ingest.Capture in
        Printf.printf "file:       %s\n" path;
        Printf.printf "format:     %s%s\n"
          (format_to_string i.format)
          (match (i.big_endian, i.nsec) with
          | Some be, Some ns ->
              Printf.sprintf " (%s-endian, %s timestamps)"
                (if be then "big" else "little")
                (if ns then "nanosecond" else "microsecond")
          | _ -> "");
        if i.format = Pcapng_format then
          Printf.printf "interfaces: %d\n" i.interfaces
        else begin
          Printf.printf "linktype:   %d%s\n" i.linktype
            (if i.linktype = Ingest.Pcap.linktype_ethernet then " (ethernet)"
             else "");
          Printf.printf "snaplen:    %d\n" i.snaplen
        end;
        Printf.printf "frames:     %d%s\n" i.frames
          (if i.clean_end then "" else " (file cut mid-record)");
        Printf.printf "decoded:    %d\n" i.decoded;
        Printf.printf
          "skipped:    %d non-ip, %d truncated, %d fragment, %d malformed\n"
          i.non_ip i.truncated i.fragment i.malformed;
        (match (i.first_ts, i.last_ts) with
        | Some a, Some b ->
            Printf.printf "timespan:   %.6f .. %.6f s (%.6f s)\n" a b (b -. a)
        | _ -> ())
  in
  let file_arg =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"FILE" ~doc:"Capture file to inspect.")
  in
  Cmd.v
    (Cmd.info "pcap-info"
       ~doc:
         "Inspect a pcap/pcapng capture: format details plus decode \
          accounting (frames, decoded, skipped)")
    Term.(const run $ file_arg)

(* ---------------- serve / intent (controller daemon) ---------------- *)

let socket_arg =
  Arg.(value & opt (some string) None
       & info [ "socket" ] ~docv:"PATH"
           ~doc:"Unix-domain socket path (default newton.sock unless --port \
                 is given).")

let port_arg =
  Arg.(value & opt (some int) None
       & info [ "port" ] ~docv:"PORT"
           ~doc:"Use 127.0.0.1:PORT instead of a Unix socket.")

let listen_of socket port =
  match (socket, port) with
  | Some _, Some _ ->
      prerr_endline "newton: --socket and --port are mutually exclusive";
      exit 1
  | None, Some p -> Service.Daemon.Tcp p
  | Some path, None -> Service.Daemon.Unix_socket path
  | None, None -> Service.Daemon.Unix_socket "newton.sock"

(* The daemon behind both [serve] and [shell]: topology, stages, replay
   source, and the intents named on the command line, submitted before
   the first request so the daemon comes up monitoring. *)
let daemon_term =
  let make topo stages preload dsl pcap gen_trace profile flows seed attacks
      iopts =
    let replay =
      if pcap = None && not gen_trace then None
      else
        let desc =
          match pcap with
          | Some path -> path
          | None -> Printf.sprintf "synthetic(flows=%d,seed=%d)" flows seed
        in
        Some
          (Service.Replay.of_trace ~pace:iopts.io_pace ~topo ~desc
             (make_trace ?pcap_in:pcap profile flows seed attacks))
    in
    let daemon =
      Service.Daemon.create ~stages_per_switch:stages
        ~replay_budget:iopts.io_chunk ?replay topo
    in
    Printf.printf "topology: %s\n%!" (Topo.to_string topo);
    (match replay with
    | Some r ->
        Printf.printf "replay: %s (%d packets)\n%!" (Service.Replay.source r)
          (Service.Replay.length r)
    | None -> ());
    List.iter
      (fun spec ->
        let resp =
          Service.Daemon.handle daemon
            (Service.Api.Submit { spec; name = None })
        in
        print_endline (Service.Api.response_summary resp);
        if not (Service.Api.response_is_ok resp) then exit 2)
      (List.map (fun n -> Service.Api.Catalog n) preload
      @ List.map (fun text -> Service.Api.Dsl text) dsl);
    daemon
  in
  let preload_arg =
    Arg.(value & opt (list int) []
         & info [ "q"; "queries" ] ~docv:"IDS"
             ~doc:"Catalog query ids submitted as intents at startup.")
  in
  let gen_trace_arg =
    Arg.(value & flag
         & info [ "gen-trace" ]
             ~doc:"Replay a synthetic trace (--profile/--flows/--seed/\
                   --attacks) when no --pcap is given.")
  in
  Term.(
    const make $ topo_arg $ stages_arg $ preload_arg $ dsl_arg $ pcap_arg
    $ gen_trace_arg $ profile_arg $ flows_arg $ seed_arg $ attacks_arg
    $ ingest_opts_term)

let cmd_serve =
  let run socket port daemon =
    Service.Daemon.serve ~log:print_endline daemon (listen_of socket port)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the long-running controller daemon: newline-delimited JSON \
          (or plain operator text) over a Unix/TCP socket, with intents \
          installing and withdrawing while a background trace or pcap \
          replays through the deployment")
    Term.(const run $ socket_arg $ port_arg $ daemon_term)

(* ---------------- shell (interactive operator console) ---------------- *)

(* The daemon loop on stdin: each line is one request through
   [Daemon.handle_line], followed by one bounded replay step, as the
   socket loop takes after each round. *)
let cmd_shell =
  let run daemon =
    print_endline
      "newton shell: submit q<N>|<dsl> [as <name>], withdraw <id>, list, \
       status <id>, stats [json|prom], fail-switch <s>, repair-switch <s>; \
       shutdown or end of input quits";
    let rec loop () =
      if not (Service.Daemon.stopping daemon) then begin
        print_string "newton> ";
        flush stdout;
        match In_channel.input_line stdin with
        | None -> print_newline ()
        | Some line ->
            if String.trim line <> "" then
              print_endline
                (Service.Api.response_summary
                   (Service.Daemon.handle_line daemon line));
            ignore (Service.Daemon.replay_step daemon);
            loop ()
      end
    in
    loop ()
  in
  Cmd.v
    (Cmd.info "shell"
       ~doc:
         "Interactive operator console: the daemon's request grammar read \
          from stdin, with the same topology, replay source and preloaded \
          intents as serve")
    Term.(const run $ daemon_term)

let cmd_intent =
  let run socket port json words =
    match Service.Api.request_of_tokens words with
    | Error m ->
        Printf.eprintf
          "newton intent: %s\nusage: newton intent submit q4 | submit <dsl> \
           [as <name>] | withdraw <id> | status <id> | list | stats \
           [json|prom] | fail-switch <s> | repair-switch <s> | shutdown\n"
          m;
        exit 2
    | Ok request -> (
        let domain, addr =
          match listen_of socket port with
          | Service.Daemon.Unix_socket path ->
              (Unix.PF_UNIX, Unix.ADDR_UNIX path)
          | Service.Daemon.Tcp p ->
              (Unix.PF_INET, Unix.ADDR_INET (Unix.inet_addr_loopback, p))
        in
        let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
        (try Unix.connect fd addr
         with Unix.Unix_error (e, _, _) ->
           Printf.eprintf "newton intent: cannot reach daemon: %s\n"
             (Unix.error_message e);
           exit 1);
        let oc = Unix.out_channel_of_descr fd in
        let ic = Unix.in_channel_of_descr fd in
        output_string oc (Service.Api.request_to_line request ^ "\n");
        flush oc;
        match input_line ic with
        | exception End_of_file ->
            prerr_endline "newton intent: daemon closed the connection";
            exit 1
        | line -> (
            if json then print_endline line;
            match Service.Api.response_of_line line with
            | Error m ->
                Printf.eprintf "newton intent: bad response: %s\n" m;
                exit 1
            | Ok resp ->
                if not json then print_endline (Service.Api.response_summary resp);
                exit (if Service.Api.response_is_ok resp then 0 else 1)))
  in
  let json_arg =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Print the raw JSON response line.")
  in
  let words_arg =
    Arg.(value & pos_all string []
         & info [] ~docv:"COMMAND"
             ~doc:"Operator command, e.g. submit q4 | withdraw 1 | list | \
                   stats prom | shutdown.")
  in
  Cmd.v
    (Cmd.info "intent"
       ~doc:
         "Drive a running newton serve daemon: submit/withdraw intents, \
          inspect their lifecycle, scrape stats, inject switch failures")
    Term.(const run $ socket_arg $ port_arg $ json_arg $ words_arg)

let () =
  let info =
    Cmd.info "newton" ~version:"1.0.0"
      ~doc:"Intent-driven network traffic monitoring (CoNEXT'20 reproduction)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            cmd_queries;
            cmd_check;
            cmd_compile;
            cmd_p4;
            cmd_run;
            cmd_stats;
            cmd_netrun;
            cmd_chaos;
            cmd_gen;
            cmd_pcap_info;
            cmd_shell;
            cmd_serve;
            cmd_intent;
          ]))
