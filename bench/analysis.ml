(** Static-analysis latency: what `newton check` and the deployment
    admission gate cost.

    The gate runs on every [Deploy.deploy], so its latency rides the
    paper's headline query-deployment numbers (Fig. 10); this bench
    pins down three shapes:

    - single  — [Check.check_query] per catalog query, all passes
    - set     — [Check.check_queries] over the full catalog + extras
                (peers and co-residents make conflict/capacity
                quadratic in the deployment size)
    - gate    — [Check.admit_compiled] of each catalog intent against
                the other sixteen's peer records, built once outside
                the timed loop as [Deploy] builds them at install, with
                linear:4 placement facts: the exact deploy-time path
                (mean and slowest intent)

    Results go to the table and a telemetry snapshot of
    [newton_bench_analysis_*] gauges, out/bench_analysis.json, which
    tracks the analysis perf trajectory alongside the other benches. *)

(* Mean seconds per call over [iters] runs of [f]. *)
let time_mean iters f =
  ignore (f ());
  let t0 = Unix.gettimeofday () in
  for _ = 1 to iters do
    ignore (f ())
  done;
  (Unix.gettimeofday () -. t0) /. float_of_int iters

let run () =
  Common.banner "Static-analysis latency (newton check / admission gate)";
  let iters = Common.getenv_int "NEWTON_BENCH_ANALYSIS_ITERS" 200 in
  let queries = Newton_query.Catalog.all () @ Newton_query.Catalog.extras () in
  let compiled = List.map (fun q -> (q, Common.compile q)) queries in
  Common.note "%d queries, %d iterations per shape" (List.length queries) iters;
  let t =
    Common.T.create
      ~aligns:[ Common.T.Left; Common.T.Right; Common.T.Right ]
      [ "shape"; "mean us"; "diags" ]
  in
  (* single: every catalog query through every pass, averaged. *)
  let single_means =
    List.map
      (fun q ->
        let s =
          time_mean iters (fun () -> Newton_analysis.Check.check_query q)
        in
        (q, s))
      queries
  in
  let single_mean =
    List.fold_left (fun acc (_, s) -> acc +. s) 0.0 single_means
    /. float_of_int (List.length single_means)
  in
  Common.T.add_row t
    [ "single (catalog mean)"; Printf.sprintf "%.1f" (single_mean *. 1e6); "0" ];
  (* set: the full catalog analysed together (peers + co-residents). *)
  let set_mean =
    time_mean iters (fun () -> Newton_analysis.Check.check_queries queries)
  in
  let set_diags = Newton_analysis.Check.check_queries queries in
  Common.T.add_row t
    [
      "set (catalog together)";
      Printf.sprintf "%.1f" (set_mean *. 1e6);
      string_of_int (List.length set_diags);
    ];
  (* gate: admit each catalog intent against the other sixteen with
     the placement facts of linear:4 at twelve stages per switch — the
     exact code path [Deploy.deploy_checked] runs before installing,
     reading peer records built once, as each deployment's is at
     install. *)
  let topo = Newton_network.Topo.linear 4 in
  let records =
    List.map (fun (q, c) -> (q, Newton_analysis.Pass.peer q (Some c))) compiled
  in
  let gate =
    List.map
      (fun ((q : Newton_query.Ast.t), c) ->
        let peers =
          List.filter_map (fun (p, r) -> if p != q then Some r else None) records
        in
        let target =
          Newton_controller.Deploy.target_of_placement
            (Newton_controller.Placement.place ~stages_per_switch:12 ~topo c)
        in
        let admit () = Newton_analysis.Check.admit_compiled ~target ~peers c in
        (q.Newton_query.Ast.id, time_mean iters admit, List.length (admit ())))
      compiled
  in
  let gate_mean =
    List.fold_left (fun acc (_, s, _) -> acc +. s) 0.0 gate
    /. float_of_int (List.length gate)
  in
  let gate_max_id, gate_max, _ =
    List.fold_left
      (fun ((_, bs, _) as best) ((_, s, _) as g) -> if s > bs then g else best)
      (0, 0.0, 0) gate
  in
  let gate_diags = List.fold_left (fun acc (_, _, n) -> acc + n) 0 gate in
  Common.T.add_row t
    [
      "gate (each intent vs the rest, mean)";
      Printf.sprintf "%.1f" (gate_mean *. 1e6);
      string_of_int gate_diags;
    ];
  Common.T.add_row t
    [
      Printf.sprintf "gate (max: Q%d)" gate_max_id;
      Printf.sprintf "%.1f" (gate_max *. 1e6);
      "";
    ];
  Common.T.print t;
  Common.note "per-query detail: slowest %s"
    (fst
       (List.fold_left
          (fun (bn, bs) ((q : Newton_query.Ast.t), s) ->
            if s > bs then (q.name, s) else (bn, bs))
          ("", 0.0) single_means));
  Common.maybe_dat t "analysis_latency";
  let module M = Newton_telemetry.Metric in
  let op o = ("op", o) and query id = ("query", Printf.sprintf "Q%d" id) in
  Common.write_snapshot "analysis"
    [
      Common.gauge "analysis_queries" "Catalog intents analysed"
        [ M.vi (List.length queries) ];
      Common.gauge "analysis_iterations" "Iterations per shape" [ M.vi iters ];
      Common.gauge "analysis_mean_seconds" "Mean seconds per call of a shape"
        [ M.v ~labels:[ op "single" ] single_mean;
          M.v ~labels:[ op "set" ] set_mean;
          M.v ~labels:[ op "gate" ] gate_mean ];
      Common.gauge "analysis_query_seconds" "Mean seconds per call for one intent"
        (List.map
           (fun ((q : Newton_query.Ast.t), s) ->
             M.v ~labels:[ op "single"; query q.id ] s)
           single_means
        @ List.map (fun (id, s, _) -> M.v ~labels:[ op "gate"; query id ] s) gate);
      Common.gauge "analysis_max_seconds" "The slowest intent's mean seconds"
        [ M.v ~labels:[ op "gate"; query gate_max_id ] gate_max ];
      Common.gauge "analysis_diagnostics" "Diagnostics a shape reports"
        [ M.vi ~labels:[ op "set" ] (List.length set_diags);
          M.vi ~labels:[ op "gate" ] gate_diags ];
    ]
