(** Tests for Newton_runtime: the per-switch engine, CQE, the analyzer. *)

open Newton_packet
open Newton_query
open Newton_runtime

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let compile = Newton_compiler.Compose.compile

let syn ~ts ~src ~dst =
  Packet.make ~ts ~src_ip:src ~dst_ip:dst ~proto:6 ~src_port:1000 ~dst_port:80
    ~tcp_flags:Field.Tcp_flag.syn ()

(* ---------------- Ctx / SP bridging ---------------- *)

let test_ctx_sp_roundtrip () =
  let c = Ctx.create () in
  c.Ctx.hash.(0) <- 123;
  c.Ctx.state.(0) <- 456;
  c.Ctx.hash.(1) <- 789;
  c.Ctx.state.(1) <- 321;
  c.Ctx.g1 <- 99;
  let c' = Ctx.of_sp (Sp_header.decode (Sp_header.encode (Ctx.to_sp c))) in
  checki "hash0" 123 c'.Ctx.hash.(0);
  checki "state0" 456 c'.Ctx.state.(0);
  checki "hash1" 789 c'.Ctx.hash.(1);
  checki "state1" 321 c'.Ctx.state.(1);
  checki "global" 99 c'.Ctx.g1

(* The in-place restore the path executors use is the SP round trip:
   values beyond the header's widths (and negative ones) saturate alike,
   [g2] is dropped, [stopped] is carried over. *)
let qcheck_apply_sp_widths =
  let value =
    QCheck.Gen.(
      oneof
        [ int_range (-1000) 1000;
          int_range (-(1 lsl 30)) (1 lsl 30);
          (* around a power of two, 16 and 24 bits included *)
          map2 (fun b d -> (1 lsl b) + d) (int_range 0 40) (int_range (-2) 2);
          oneofl [ max_int; min_int ] ])
  in
  let gen = QCheck.Gen.(pair (array_repeat 6 value) bool) in
  let print (v, stopped) =
    Printf.sprintf "[%s] stopped=%b"
      (String.concat "; " (Array.to_list (Array.map string_of_int v)))
      stopped
  in
  QCheck.Test.make ~count:1000 ~name:"apply_sp_widths = SP round trip"
    (QCheck.make ~print gen)
    (fun (v, stopped) ->
      let c = Ctx.create () in
      c.Ctx.hash.(0) <- v.(0);
      c.Ctx.state.(0) <- v.(1);
      c.Ctx.hash.(1) <- v.(2);
      c.Ctx.state.(1) <- v.(3);
      c.Ctx.g1 <- v.(4);
      c.Ctx.g2 <- v.(5);
      c.Ctx.stopped <- stopped;
      let r = Ctx.of_sp (Sp_header.decode (Sp_header.encode (Ctx.to_sp c))) in
      Ctx.apply_sp_widths c;
      c.Ctx.hash = r.Ctx.hash
      && c.Ctx.state = r.Ctx.state && c.Ctx.g1 = r.Ctx.g1
      && c.Ctx.g2 = r.Ctx.g2 && c.Ctx.stopped = stopped)

let test_ctx_reset () =
  let c = Ctx.create () in
  c.Ctx.g1 <- 5;
  c.Ctx.stopped <- true;
  Ctx.reset c;
  checki "g1 cleared" 0 c.Ctx.g1;
  checkb "unstopped" false c.Ctx.stopped

(* ---------------- Engine basics ---------------- *)

let test_install_returns_rules () =
  let e = Engine.create ~switch_id:0 () in
  let compiled = compile (Catalog.q1 ()) in
  let _, rules = Engine.install e compiled in
  checki "rules = compiled rules" compiled.Newton_compiler.Compose.stats.Newton_compiler.Compose.rules rules;
  checki "tracked" rules (Engine.total_rules e)

let test_remove_frees_rules () =
  let e = Engine.create ~switch_id:0 () in
  let uid, rules = Engine.install e (compile (Catalog.q1 ())) in
  Alcotest.(check (option int)) "remove returns rules" (Some rules) (Engine.remove e uid);
  checki "no instances left" 0 (List.length (Engine.instances e));
  Alcotest.(check (option int)) "double remove" None (Engine.remove e uid)

let test_explicit_uid () =
  let e = Engine.create ~switch_id:0 () in
  let uid, _ = Engine.install e ~uid:5000 (compile (Catalog.q1 ())) in
  checki "uid honoured" 5000 uid

let test_q1_detects_flood () =
  let e = Engine.create ~switch_id:0 () in
  let _ = Engine.install e (compile (Catalog.q1 ~th:10 ())) in
  for i = 1 to 20 do
    Engine.process_packet e (syn ~ts:0.01 ~src:i ~dst:999)
  done;
  checki "one report for the flooded host" 1 (Engine.report_count e);
  match Engine.reports e with
  | [ r ] ->
      checki "query id" 1 r.Report.query_id;
      checki "reported key is the victim" 999 r.Report.keys.(0)
  | _ -> Alcotest.fail "expected one report"

let test_non_matching_traffic_ignored () =
  let e = Engine.create ~switch_id:0 () in
  let _ = Engine.install e (compile (Catalog.q1 ~th:5 ())) in
  for i = 1 to 20 do
    (* UDP traffic: Q1's newton_init entry (tcp, SYN) must not match. *)
    Engine.process_packet e (Packet.make ~ts:0.01 ~src_ip:i ~dst_ip:999 ~proto:17 ())
  done;
  checki "no reports" 0 (Engine.report_count e)

let test_window_roll_resets_state () =
  let e = Engine.create ~switch_id:0 () in
  let _ = Engine.install e (compile (Catalog.q1 ~th:10 ())) in
  for i = 1 to 8 do
    Engine.process_packet e (syn ~ts:0.01 ~src:i ~dst:999)
  done;
  (* new window: counts reset, 8 more SYNs stay below threshold *)
  for i = 1 to 8 do
    Engine.process_packet e (syn ~ts:0.15 ~src:i ~dst:999)
  done;
  checki "no report across window boundary" 0 (Engine.report_count e)

let test_report_dedup_within_window () =
  let e = Engine.create ~switch_id:0 () in
  let _ = Engine.install e (compile (Catalog.q1 ~th:5 ())) in
  for i = 1 to 50 do
    Engine.process_packet e (syn ~ts:0.01 ~src:i ~dst:999)
  done;
  checki "one report despite 44 above-threshold packets" 1 (Engine.report_count e)

let test_reports_again_next_window () =
  let e = Engine.create ~switch_id:0 () in
  let _ = Engine.install e (compile (Catalog.q1 ~th:5 ())) in
  for i = 1 to 10 do
    Engine.process_packet e (syn ~ts:0.01 ~src:i ~dst:999)
  done;
  for i = 1 to 10 do
    Engine.process_packet e (syn ~ts:0.15 ~src:i ~dst:999)
  done;
  checki "one report per window" 2 (Engine.report_count e)

let test_drain_reports () =
  let e = Engine.create ~switch_id:0 () in
  let _ = Engine.install e (compile (Catalog.q1 ~th:3 ())) in
  for i = 1 to 10 do
    Engine.process_packet e (syn ~ts:0.01 ~src:i ~dst:7)
  done;
  checki "drained" 1 (List.length (Engine.drain_reports e));
  checki "drain empties buffer" 0 (List.length (Engine.drain_reports e))

let test_multiple_instances_coexist () =
  let e = Engine.create ~switch_id:0 () in
  let _ = Engine.install e (compile (Catalog.q1 ~th:5 ())) in
  let _ = Engine.install e (compile (Catalog.q5 ~th:5 ())) in
  for i = 1 to 10 do
    Engine.process_packet e (syn ~ts:0.01 ~src:i ~dst:999);
    Engine.process_packet e
      (Packet.make ~ts:0.01 ~src_ip:(1000 + i) ~dst_ip:888 ~proto:17 ~src_port:5
         ~dst_port:123 ())
  done;
  let qids =
    Engine.reports e |> List.map (fun r -> r.Report.query_id) |> List.sort_uniq compare
  in
  Alcotest.(check (list int)) "both queries fired" [ 1; 5 ] qids

(* ---------------- Engine vs reference evaluator ---------------- *)

let test_engine_matches_reference () =
  let trace =
    Newton_trace.Gen.generate ~attacks:Newton_trace.Attack.default_suite ~seed:21
      (Newton_trace.Profile.with_flows Newton_trace.Profile.caida_like 1500)
  in
  List.iter
    (fun q ->
      let truth = Ref_eval.evaluate q (Newton_trace.Gen.packets trace) in
      let e = Engine.create ~switch_id:0 () in
      let _ = Engine.install e (compile q) in
      Array.iter (Engine.process_packet e) (Newton_trace.Gen.packets trace);
      let a = Analyzer.score ~truth ~detected:(Engine.reports e) in
      checkb (Printf.sprintf "Q%d recall = 1" q.Ast.id) true (a.Analyzer.recall >= 0.99);
      checkb (Printf.sprintf "Q%d precision high" q.Ast.id) true
        (a.Analyzer.precision >= 0.5))
    (Catalog.all ())

(* ---------------- CQE ---------------- *)

(* [compiled] deployed in CQE mode on [linear n], cut so its chain
   spans all [n] switches; [send] runs a packet from the host at the
   first switch to the host at the last, across every slice. *)
let cqe_linear compiled n =
  let module Deploy = Newton_controller.Deploy in
  let stages = compiled.Newton_compiler.Compose.stats.Newton_compiler.Compose.stages in
  let per = max 1 ((stages + n - 1) / n) in
  let d = Deploy.create (Newton_network.Topo.linear n) in
  ignore (Deploy.deploy ~mode:`Cqe ~stages_per_switch:per d compiled);
  let src_host, dst_host =
    match Newton_network.Topo.hosts (Deploy.topo d) with
    | [ a; b ] -> (a, b)
    | _ -> assert false
  in
  (d, Deploy.process_packet d ~src_host ~dst_host)

let test_cqe_equivalent_to_single_switch () =
  let compiled = compile (Catalog.q1 ~th:10 ()) in
  let single = Engine.create ~switch_id:0 () in
  let _ = Engine.install single compiled in
  let sliced, send = cqe_linear compiled 3 in
  let trace =
    Newton_trace.Gen.generate ~attacks:Newton_trace.Attack.default_suite ~seed:33
      (Newton_trace.Profile.with_flows Newton_trace.Profile.caida_like 800)
  in
  Array.iter
    (fun pkt ->
      Engine.process_packet single pkt;
      send pkt)
    (Newton_trace.Gen.packets trace);
  let keyset reports =
    List.map (fun r -> (r.Report.window, r.Report.keys)) reports
    |> List.sort_uniq compare
  in
  checki "no slice deferred to the analyzer" 0
    (Newton_controller.Deploy.software_deferrals sliced);
  Alcotest.(check (list (pair int (array int))))
    "sliced execution detects the same keys" (keyset (Engine.reports single))
    (keyset (Newton_controller.Deploy.all_reports sliced))

let test_cqe_reports_once_per_path () =
  let module Deploy = Newton_controller.Deploy in
  let compiled = compile (Catalog.q1 ~th:5 ()) in
  let sliced, send = cqe_linear compiled 2 in
  for i = 1 to 20 do
    send (syn ~ts:0.01 ~src:i ~dst:42)
  done;
  checki "one report total" 1 (List.length (Deploy.all_reports sliced));
  let sp_bytes =
    List.fold_left
      (fun acc s ->
        acc
        + Newton_telemetry.Stats.get
            (Engine.sink (Deploy.engine sliced s))
            Newton_telemetry.Stats.Sp_header_bytes)
      0
      (Newton_network.Topo.switches (Deploy.topo sliced))
  in
  checki "SP header on each inter-switch hop" (20 * Sp_header.size_bytes) sp_bytes;
  checkb "overhead accounted" true (Deploy.sp_overhead_ratio sliced > 0.0)

let test_shadow_k_installed_for_slices () =
  let compiled = compile (Catalog.q1 ()) in
  let e = Engine.create ~switch_id:1 () in
  let _ = Engine.install e ~stage_lo:2 ~stage_hi:10 compiled in
  let inst = List.hd (Engine.instances e) in
  let has_k =
    Array.exists
      (fun slots ->
        List.exists (fun s -> s.Newton_compiler.Ir.kind = Newton_dataplane.Module_cost.K) slots)
      (Engine.instance_slots inst)
  in
  checkb "slice re-installs upstream K" true has_k

(* ---------------- capacity (module-table rules) ---------------- *)

let test_capacity_bounds_concurrent_queries () =
  (* Each module cell holds 256 rules; installing clones beyond that
     raises. *)
  let e = Engine.create ~switch_id:0 () in
  let compiled = compile (Catalog.q4 ()) in
  let installed = ref 0 in
  (try
     for _ = 1 to 400 do
       ignore (Engine.install e compiled);
       incr installed
     done
   with Engine.Rules_exhausted _ -> ());
  checki "capacity = rules_per_module clones"
    Newton_dataplane.Module_cost.rules_per_module !installed

let test_capacity_released_on_remove () =
  let e = Engine.create ~switch_id:0 () in
  let compiled = compile (Catalog.q4 ()) in
  (* Churn well past the static capacity: removal must free the cells. *)
  for _ = 1 to 300 do
    let uid, _ = Engine.install e compiled in
    ignore (Engine.remove e uid)
  done;
  checki "engine empty after churn" 0 (List.length (Engine.instances e))

let test_rejected_install_leaves_no_residue () =
  let e = Engine.create ~switch_id:0 () in
  let compiled = compile (Catalog.q4 ()) in
  for _ = 1 to Newton_dataplane.Module_cost.rules_per_module do
    ignore (Engine.install e compiled)
  done;
  (* the next install fails atomically... *)
  checkb "raises at capacity" true
    (try ignore (Engine.install e compiled); false
     with Engine.Rules_exhausted _ -> true);
  (* ...so removing one clone frees exactly one slot again *)
  let victim = Engine.instance_uid (List.hd (Engine.instances e)) in
  ignore (Engine.remove e victim);
  checkb "slot freed" true
    (try ignore (Engine.install e compiled); true
     with Engine.Rules_exhausted _ -> false)

let test_init_table_entries_tracked () =
  let e = Engine.create ~switch_id:0 () in
  let uid, _ = Engine.install e (compile (Catalog.q6 ())) in
  (* Q6 has two branches -> two classifier entries. *)
  checki "two init entries" 2 (Engine.init_table_size e);
  ignore (Engine.remove e uid);
  checki "entries removed" 0 (Engine.init_table_size e)

let test_report_budget_caps_exports () =
  let e = Engine.create ~switch_id:0 () in
  Engine.set_report_budget e (Some 3);
  let _ = Engine.install e (compile (Catalog.q1 ~th:2 ())) in
  (* ten distinct victims all cross the threshold in one window *)
  for v = 1 to 10 do
    for i = 1 to 5 do
      Engine.process_packet e (syn ~ts:0.01 ~src:(100 + i) ~dst:v)
    done
  done;
  checki "only the budget exports" 3 (Engine.report_count e);
  checki "rest dropped on the wire" 7 (Engine.dropped_reports e)

let test_report_budget_resets_per_window () =
  let e = Engine.create ~switch_id:0 () in
  Engine.set_report_budget e (Some 2);
  let _ = Engine.install e (compile (Catalog.q1 ~th:2 ())) in
  for v = 1 to 5 do
    for i = 1 to 5 do
      Engine.process_packet e (syn ~ts:0.01 ~src:(100 + i) ~dst:v)
    done
  done;
  for v = 1 to 5 do
    for i = 1 to 5 do
      Engine.process_packet e (syn ~ts:0.15 ~src:(100 + i) ~dst:v)
    done
  done;
  checki "budget renews each window" 4 (Engine.report_count e)

let test_no_budget_is_unlimited () =
  let e = Engine.create ~switch_id:0 () in
  let _ = Engine.install e (compile (Catalog.q1 ~th:2 ())) in
  for v = 1 to 10 do
    for i = 1 to 5 do
      Engine.process_packet e (syn ~ts:0.01 ~src:(100 + i) ~dst:v)
    done
  done;
  checki "all exported" 10 (Engine.report_count e);
  checki "nothing dropped" 0 (Engine.dropped_reports e)

let test_instance_stats () =
  let e = Engine.create ~switch_id:0 () in
  let _ = Engine.install e (compile (Catalog.q1 ~th:5 ())) in
  for i = 1 to 10 do
    Engine.process_packet e (syn ~ts:0.01 ~src:i ~dst:7)
  done;
  match Engine.instances e with
  | [ inst ] ->
      let arrays = List.map snd (Engine.instance_arrays inst) in
      let sum f = List.fold_left (fun acc a -> acc + f a) 0 arrays in
      checkb "query named" true
        ((Engine.instance_query inst).Ast.name = "new_tcp_connections");
      checkb "arrays allocated" true (List.length arrays >= 2);
      checkb "registers counted" true
        (sum Newton_sketch.Register_array.size >= 8192);
      checkb "occupancy after traffic" true
        (sum Newton_sketch.Register_array.occupancy > 0);
      checki "one key reported this window" 1
        (Engine.instance_reported_keys inst)
  | l -> Alcotest.failf "expected one instance, got %d" (List.length l)

(* ---------------- Analyzer ---------------- *)

let mk_report ?(q = 1) ?(w = 0) ?(keys = [| 1 |]) ?(v = 10) ?(v2 = None) () =
  Report.make ~query_id:q ~window:w ~keys ~value:v ~value2:v2 ()

let test_analyzer_dedup () =
  let a = Analyzer.create () in
  Analyzer.ingest a [ mk_report (); mk_report (); mk_report ~w:1 () ];
  checki "3 messages received" 3 (Analyzer.received a);
  checki "2 distinct results" 2 (List.length (Analyzer.results a))

let test_analyzer_pair_ratio_filter () =
  let a = Analyzer.create () in
  (* 100 connections, 50 bytes each: ratio 0.5 -> slowloris, kept. *)
  Analyzer.ingest a [ mk_report ~keys:[| 1 |] ~v:100 ~v2:(Some 50) () ];
  (* 10 connections, 100000 bytes: normal server, dropped. *)
  Analyzer.ingest a [ mk_report ~keys:[| 2 |] ~v:10 ~v2:(Some 100_000) () ];
  checki "ratio filter keeps slowloris only" 1 (List.length (Analyzer.results a))

let test_analyzer_csv () =
  let csv =
    Analyzer.to_csv
      [ mk_report ~q:1 ~w:2 ~keys:[| 7; 8 |] ~v:10 ();
        mk_report ~q:8 ~w:0 ~keys:[| 9 |] ~v:3 ~v2:(Some 42) () ]
  in
  let lines = String.split_on_char '\n' (String.trim csv) in
  checki "header + two rows" 3 (List.length lines);
  Alcotest.(check string) "header" "query_id,window,keys,value,value2" (List.hd lines);
  Alcotest.(check string) "row with multi-key" "1,2,7;8,10," (List.nth lines 1);
  Alcotest.(check string) "row with value2" "8,0,9,3,42" (List.nth lines 2)

let test_analyzer_score () =
  let truth = [ mk_report ~keys:[| 1 |] (); mk_report ~keys:[| 2 |] () ] in
  let detected = [ mk_report ~keys:[| 1 |] (); mk_report ~keys:[| 3 |] () ] in
  let s = Analyzer.score ~truth ~detected in
  checki "tp" 1 s.Analyzer.true_positives;
  checki "fp" 1 s.Analyzer.false_positives;
  checki "fn" 1 s.Analyzer.false_negatives;
  Alcotest.(check (float 1e-9)) "recall" 0.5 s.Analyzer.recall;
  Alcotest.(check (float 1e-9)) "precision" 0.5 s.Analyzer.precision;
  Alcotest.(check (float 1e-9)) "fpr" 0.5 s.Analyzer.fpr

let test_analyzer_score_empty () =
  let s = Analyzer.score ~truth:[] ~detected:[] in
  Alcotest.(check (float 1e-9)) "vacuous recall" 1.0 s.Analyzer.recall;
  Alcotest.(check (float 1e-9)) "vacuous precision" 1.0 s.Analyzer.precision

let suite =
  [
    ("ctx sp roundtrip", `Quick, test_ctx_sp_roundtrip);
    QCheck_alcotest.to_alcotest qcheck_apply_sp_widths;
    ("ctx reset", `Quick, test_ctx_reset);
    ("install returns rules", `Quick, test_install_returns_rules);
    ("remove frees rules", `Quick, test_remove_frees_rules);
    ("explicit uid", `Quick, test_explicit_uid);
    ("q1 detects flood", `Quick, test_q1_detects_flood);
    ("non-matching traffic ignored", `Quick, test_non_matching_traffic_ignored);
    ("window roll resets state", `Quick, test_window_roll_resets_state);
    ("report dedup within window", `Quick, test_report_dedup_within_window);
    ("reports again next window", `Quick, test_reports_again_next_window);
    ("drain reports", `Quick, test_drain_reports);
    ("multiple instances coexist", `Quick, test_multiple_instances_coexist);
    ("engine matches reference (Q1-Q9)", `Slow, test_engine_matches_reference);
    ("cqe equivalent to single switch", `Quick, test_cqe_equivalent_to_single_switch);
    ("cqe reports once per path", `Quick, test_cqe_reports_once_per_path);
    ("shadow K installed for slices", `Quick, test_shadow_k_installed_for_slices);
    ("report budget caps exports", `Quick, test_report_budget_caps_exports);
    ("report budget resets per window", `Quick, test_report_budget_resets_per_window);
    ("no budget is unlimited", `Quick, test_no_budget_is_unlimited);
    ("instance stats", `Quick, test_instance_stats);
    ("capacity bounds concurrent queries", `Quick, test_capacity_bounds_concurrent_queries);
    ("capacity released on remove", `Quick, test_capacity_released_on_remove);
    ("rejected install leaves no residue", `Quick, test_rejected_install_leaves_no_residue);
    ("init table entries tracked", `Quick, test_init_table_entries_tracked);
    ("analyzer dedup", `Quick, test_analyzer_dedup);
    ("analyzer pair ratio filter", `Quick, test_analyzer_pair_ratio_filter);
    ("analyzer csv", `Quick, test_analyzer_csv);
    ("analyzer score", `Quick, test_analyzer_score);
    ("analyzer score empty", `Quick, test_analyzer_score_empty);
  ]
