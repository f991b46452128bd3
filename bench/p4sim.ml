(** Interpreted-P4 throughput vs the simulator engine.

    The differential harness (`newton p4 diff`) replays every packet
    through both targets; this bench pins how much slower the
    interpreter side is — the number that bounds differential-run
    time in CI and locally.  Three shapes per query: the engine's
    packets/s, the interpreter's packets/s over prebuilt frames, and
    the rate of {!Newton_p4sim.Diff.wire} ([Encode.frame] plus the
    [Decode] read-back), which a differential run pays on top.

    Results go to the table and a telemetry snapshot of
    [newton_bench_p4sim_*] gauges, out/bench_p4sim.json. *)

let getenv_float name default =
  match Option.bind (Sys.getenv_opt name) float_of_string_opt with
  | Some v when v > 0.0 -> v
  | _ -> default

let rate n t = if t <= 0.0 then 0.0 else float_of_int n /. t

let run () =
  Common.banner "Interpreted-P4 pipeline vs engine (differential cost)";
  let scale = getenv_float "NEWTON_BENCH_P4SIM_SCALE" 0.03 in
  let packets = Newton_p4sim.Corpus.coverage_packets ~scale () in
  let n = List.length packets in
  Common.note "%d packets (pinned coverage corpus, scale %.2f)" n scale;
  (* frames once: their rate is a shape of its own, and the
     interpreter shape should not re-pay it per query *)
  let t0 = Unix.gettimeofday () in
  let bytes =
    List.filter_map
      (fun p -> Result.to_option (Newton_p4sim.Diff.wire p))
      packets
  in
  let synth_s = Unix.gettimeofday () -. t0 in
  let synth_pps = rate (List.length bytes) synth_s in
  let program =
    Newton_p4sim.P4parse.parse (Newton_p4gen.Emit.program ())
  in
  let t =
    Common.T.create
      ~aligns:[ Common.T.Left; Common.T.Right; Common.T.Right; Common.T.Right ]
      [ "query"; "engine pps"; "interp pps"; "slowdown" ]
  in
  let per_query =
    List.map
      (fun q ->
        let compiled = Newton_compiler.Compose.compile q in
        let engine =
          Newton_runtime.Engine.create ~sink:Newton_telemetry.Stats.null
            ~switch_id:0 ()
        in
        let _ = Newton_runtime.Engine.install engine compiled in
        let t0 = Unix.gettimeofday () in
        List.iter (Newton_runtime.Engine.process_packet engine) packets;
        let engine_s = Unix.gettimeofday () -. t0 in
        ignore (Newton_runtime.Engine.drain_reports engine);
        let interp = Newton_p4sim.Interp.create program in
        Newton_p4sim.Interp.install interp
          (Newton_p4gen.Rules.entries_exn compiled);
        let t0 = Unix.gettimeofday () in
        List.iter
          (fun b -> ignore (Newton_p4sim.Interp.run interp b))
          bytes;
        let interp_s = Unix.gettimeofday () -. t0 in
        let engine_pps = rate n engine_s in
        let interp_pps = rate (List.length bytes) interp_s in
        let slowdown = if interp_pps > 0.0 then engine_pps /. interp_pps else 0.0 in
        Common.T.add_row t
          [
            Printf.sprintf "Q%d %s" q.Newton_query.Ast.id
              q.Newton_query.Ast.name;
            Printf.sprintf "%.0f" engine_pps;
            Printf.sprintf "%.0f" interp_pps;
            Printf.sprintf "%.1fx" slowdown;
          ];
        (q, engine_pps, interp_pps, slowdown))
      [ Newton_query.Catalog.q1 (); Newton_query.Catalog.q4 ();
        Newton_query.Catalog.q12 () ]
  in
  Common.T.print t;
  Common.note "wire frames (Encode.frame + read-back): %.0f packets/s"
    synth_pps;
  Common.maybe_dat t "p4sim_throughput";
  let module M = Newton_telemetry.Metric in
  let per_query f =
    List.concat_map
      (fun ((q : Newton_query.Ast.t), e, i, s) ->
        f [ ("query", Printf.sprintf "Q%d" q.id) ] e i s)
      per_query
  in
  Common.write_snapshot "p4sim"
    [
      Common.gauge "p4sim_packets" "Packets in the coverage corpus" [ M.vi n ];
      Common.gauge "p4sim_scale" "Coverage corpus scale" [ M.v scale ];
      Common.gauge "p4sim_wire_pps"
        "Packets/s of Encode.frame plus the Decode read-back"
        [ M.v synth_pps ];
      Common.gauge "p4sim_pps" "Packets/s of one target on one query"
        (per_query (fun l e i _ ->
             [ M.v ~labels:(l @ [ ("engine", "engine") ]) e;
               M.v ~labels:(l @ [ ("engine", "interp") ]) i ]));
      Common.gauge "p4sim_slowdown" "Engine packets/s over interpreter packets/s"
        (per_query (fun l _ _ s -> [ M.v ~labels:l s ]));
    ]
