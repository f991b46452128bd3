(** Switch-failure recovery: state-carrying re-placement, the chaos
    differential harness, and the hot-path regressions that rode along
    (merge-op strictness). *)

open Newton_network
open Newton_controller
open Newton_runtime

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let compile = Newton_compiler.Compose.compile
let q4 () = compile (Newton_query.Catalog.q4 ())

let gen_trace ?(attacks = true) ?(flows = 1500) ~seed () =
  Newton_trace.Gen.generate
    ~attacks:(if attacks then Newton_trace.Attack.default_suite else [])
    ~seed
    (Newton_trace.Profile.with_flows Newton_trace.Profile.caida_like flows)

let last_ts trace =
  let pkts = Newton_trace.Gen.packets trace in
  Newton_packet.Packet.ts pkts.(Array.length pkts - 1)

let replay_deploy dep topo trace =
  Newton_trace.Gen.iter
    (fun pkt ->
      let src_host =
        Topo.host_of_ip topo (Newton_packet.Packet.get pkt Newton_packet.Field.Src_ip)
      in
      let dst_host =
        Topo.host_of_ip topo (Newton_packet.Packet.get pkt Newton_packet.Field.Dst_ip)
      in
      Deploy.process_packet dep ~src_host ~dst_host pkt)
    trace

(* ---------------- Placement ?usable ---------------- *)

let test_placement_usable_blocks_switch () =
  let topo = Topo.bypass ~short:1 ~long:2 () in
  let p =
    Placement.place ~usable:(fun s -> s <> 2) ~stages_per_switch:4 ~topo (q4 ())
  in
  Alcotest.(check (list int)) "failed switch gets nothing" []
    (Placement.slices_of p 2);
  (* The backup chain still carries every depth. *)
  checkb "slice 2 survives on backup" true
    (List.mem 2 (Placement.slices_of p 3) || List.mem 2 (Placement.slices_of p 4))

let test_placement_usable_exact_matches_memo () =
  let topo = Topo.bypass ~short:2 ~long:3 () in
  let usable s = s <> 3 in
  let pe = Placement.place ~mode:`Exact ~usable ~stages_per_switch:4 ~topo (q4 ()) in
  let pm = Placement.place ~mode:`Memo ~usable ~stages_per_switch:4 ~topo (q4 ()) in
  Array.iteri
    (fun s ds -> Alcotest.(check (list int)) "exact = memo" ds (Placement.slices_of pm s))
    pe.Placement.slices

(* ---------------- Engine.absorb_state ---------------- *)

(* Split one trace across two engines (same installed query), absorb one
   into the other, and check the merge is register-for-register the ALU
   merge of the two banks. *)
let test_absorb_state_is_alu_merge () =
  let compiled = q4 () in
  let mk () =
    let e = Engine.create ~switch_id:0 () in
    ignore (Engine.install e ~uid:7 compiled);
    e
  in
  let a = mk () and b = mk () in
  let trace = gen_trace ~seed:11 () in
  Array.iteri
    (fun i pkt -> Engine.process_packet (if i mod 2 = 0 then a else b) pkt)
    (Newton_trace.Gen.packets trace);
  let ia = Option.get (Engine.find_instance a 7) in
  let ib = Option.get (Engine.find_instance b 7) in
  checki "same final window" (Engine.instance_window ia) (Engine.instance_window ib);
  let op_of = Merge.array_ops ia in
  let expected =
    List.map
      (fun (key, arr_a) ->
        let arr_b = Option.get (Engine.instance_array ib key) in
        let op = Option.get (op_of key) in
        (key, Newton_sketch.Register_array.merge ~op arr_a arr_b))
      (Engine.instance_arrays ia)
  in
  let banks, _cells = Engine.absorb_state ~op_of ~src:ib ~dst:ia in
  checkb "merged at least one bank" true (banks > 0);
  List.iter
    (fun (key, want) ->
      let got = Option.get (Engine.instance_array ia key) in
      for i = 0 to Newton_sketch.Register_array.size want - 1 do
        checki "register" (Newton_sketch.Register_array.get want i)
          (Newton_sketch.Register_array.get got i)
      done)
    expected

let test_absorb_state_stale_src_is_noop () =
  let compiled = q4 () in
  let mk () =
    let e = Engine.create ~switch_id:0 () in
    ignore (Engine.install e ~uid:7 compiled);
    e
  in
  let a = mk () and b = mk () in
  let trace = gen_trace ~flows:300 ~seed:12 () in
  (* Only [a] processes, so its window advances past [b]'s window 0. *)
  Newton_trace.Gen.iter (Engine.process_packet a) trace;
  let ia = Option.get (Engine.find_instance a 7) in
  let ib = Option.get (Engine.find_instance b 7) in
  checkb "a rolled forward" true (Engine.instance_window ia > 0);
  let before = List.map (fun (k, arr) -> (k, Newton_sketch.Register_array.copy arr))
      (Engine.instance_arrays ia)
  in
  let banks, cells = Engine.absorb_state ~op_of:(Merge.array_ops ia) ~src:ib ~dst:ia in
  checki "no banks" 0 banks;
  checki "no cells" 0 cells;
  List.iter
    (fun (key, want) ->
      let got = Option.get (Engine.instance_array ia key) in
      for i = 0 to Newton_sketch.Register_array.size want - 1 do
        checki "register untouched" (Newton_sketch.Register_array.get want i)
          (Newton_sketch.Register_array.get got i)
      done)
    before

(* ---------------- fail_switch state migration ---------------- *)

let slice_uid uid d = (uid * 1000) + d

(* Fail the primary-chain switch mid-trace and check the displaced
   slice's bank lands register-identical on every surviving host. *)
let test_fail_switch_migrates_register_identical () =
  let topo = Topo.bypass ~short:1 ~long:2 () in
  let dep = Deploy.create topo in
  let uid, _ = Deploy.deploy ~stages_per_switch:4 dep (q4 ()) in
  let trace = gen_trace ~seed:21 () in
  replay_deploy dep topo trace;
  let src_inst =
    Option.get (Engine.find_instance (Deploy.engine dep 2) (slice_uid uid 2))
  in
  let src_copy =
    List.map
      (fun (k, arr) -> (k, Newton_sketch.Register_array.copy arr))
      (Engine.instance_arrays src_inst)
  in
  checkb "failed switch accumulated state" true
    (List.exists
       (fun (_, arr) -> Newton_sketch.Register_array.occupancy arr > 0)
       src_copy);
  let r = Option.get (Deploy.fail_switch dep 2) in
  checkb "slices migrated" true (r.Deploy.r_slices_migrated > 0);
  checkb "cells moved" true (r.Deploy.r_cells_moved > 0);
  checki "no software fallback" 0 r.Deploy.r_software_fallbacks;
  (* Both backup-chain hosts of slice 2 hold the migrated bank: their
     own state was empty (no traffic crossed them), so post-migration
     they are register-identical to the failed switch's bank. *)
  List.iter
    (fun host ->
      let dst =
        Option.get (Engine.find_instance (Deploy.engine dep host) (slice_uid uid 2))
      in
      checki "window aligned" (Engine.instance_window src_inst)
        (Engine.instance_window dst);
      List.iter
        (fun (key, want) ->
          let got = Option.get (Engine.instance_array dst key) in
          for i = 0 to Newton_sketch.Register_array.size want - 1 do
            checki "migrated register"
              (Newton_sketch.Register_array.get want i)
              (Newton_sketch.Register_array.get got i)
          done)
        src_copy)
    [ 3; 4 ];
  (* The dead engine no longer holds the instance. *)
  checkb "failed engine cleared" true
    (Engine.find_instance (Deploy.engine dep 2) (slice_uid uid 2) = None)

let test_fail_switch_idempotent_and_validated () =
  let topo = Topo.bypass ~short:1 ~long:2 () in
  let dep = Deploy.create topo in
  ignore (Deploy.deploy ~stages_per_switch:4 dep (q4 ()));
  checkb "first fail recovers" true (Deploy.fail_switch dep 2 <> None);
  checkb "second fail is a no-op" true (Deploy.fail_switch dep 2 = None);
  checkb "repair of a live switch is a no-op" true (Deploy.repair_switch dep 3 = None);
  checkb "rejects hosts" true
    (try ignore (Deploy.fail_switch dep 99); false with Invalid_argument _ -> true)

let test_repair_switch_rejoins () =
  let topo = Topo.bypass ~short:1 ~long:2 () in
  let dep = Deploy.create topo in
  let uid, _ = Deploy.deploy ~stages_per_switch:4 dep (q4 ()) in
  ignore (Deploy.fail_switch dep 2);
  Alcotest.(check (list int)) "marked failed" [ 2 ] (Deploy.failed_switches dep);
  let r = Option.get (Deploy.repair_switch dep 2) in
  checkb "repair reinstalls rules" true (r.Deploy.r_rules_installed > 0);
  checkb "repair pays reconfiguration latency" true (r.Deploy.r_latency > 0.0);
  checkb "unmarked" true (Deploy.failed_switches dep = []);
  checkb "slice reinstalled on the repaired switch" true
    (Engine.find_instance (Deploy.engine dep 2) (slice_uid uid 2) <> None);
  (* Traffic routes over the primary chain again. *)
  let path =
    Option.get (Route.switch_path (Deploy.route dep) ~src_host:5 ~dst_host:6)
  in
  checkb "primary path restored" true (List.mem 2 path)

(* Failing every dataplane host of a slice degrades it to the software
   engine, carrying the state along. *)
let test_software_fallback_when_no_host_survives () =
  let topo = Topo.bypass ~short:1 ~long:2 () in
  let dep = Deploy.create topo in
  ignore (Deploy.deploy ~stages_per_switch:4 dep (q4 ()));
  let trace = gen_trace ~flows:800 ~seed:23 () in
  replay_deploy dep topo trace;
  let r2 = Option.get (Deploy.fail_switch dep 2) in
  checkb "first failure migrates to the backup chain" true
    (r2.Deploy.r_slices_migrated > 0);
  ignore (Deploy.fail_switch dep 3);
  let r = Option.get (Deploy.fail_switch dep 4) in
  (* With the whole interior dead, slice 2 has no dataplane host left:
     its state continues in the software engine instead of migrating. *)
  checkb "software fallback engaged" true (r.Deploy.r_software_fallbacks > 0);
  checki "nothing left to migrate to" 0 r.Deploy.r_slices_migrated

let test_sole_mode_fail_repair () =
  let topo = Topo.bypass ~short:1 ~long:2 () in
  let dep = Deploy.create topo in
  let uid, _ = Deploy.deploy ~mode:`Sole dep (q4 ()) in
  checkb "installed" true
    (Engine.find_instance (Deploy.engine dep 2) (slice_uid uid 1) <> None);
  let r = Option.get (Deploy.fail_switch dep 2) in
  checki "no migration in sole mode" 0 r.Deploy.r_slices_migrated;
  checkb "instance dropped" true
    (Engine.find_instance (Deploy.engine dep 2) (slice_uid uid 1) = None);
  ignore (Deploy.repair_switch dep 2);
  checkb "instance reinstalled" true
    (Engine.find_instance (Deploy.engine dep 2) (slice_uid uid 1) <> None)

(* ---------------- chaos differential ---------------- *)

let catalog () = Newton_query.Catalog.all ()

(* Acceptance bar: failing the single primary-chain switch leaves all
   nine catalog queries reporting identically to the failure-free run —
   zero unexplained diffs, every query still present in the output. *)
let test_differential_all_queries_single_fail () =
  let topo = Topo.bypass ~short:1 ~long:2 () in
  let trace = gen_trace ~seed:42 () in
  let events =
    [ { Chaos.at = last_ts trace /. 2.0; switch = 2; action = `Fail } ]
  in
  let res =
    Chaos.run ~stages_per_switch:4 ~topo ~queries:(catalog ()) ~events trace
  in
  checkb "baseline produced reports" true (res.Chaos.baseline_reports > 0);
  checki "no unexplained diffs" 0 (List.length (Chaos.unexplained res));
  checki "no diffs at all on deterministic reroute" 0 (List.length res.Chaos.diffs);
  checki "all reports matched" res.Chaos.baseline_reports res.Chaos.matched;
  Alcotest.(check (list int)) "every query reported or is allow-listed" []
    res.Chaos.silent;
  let migrated =
    List.fold_left
      (fun acc (r : Deploy.recovery) -> acc + r.Deploy.r_slices_migrated)
      0 res.Chaos.recoveries
  in
  checkb "recovery migrated state" true (migrated > 0)

let test_differential_fail_then_repair () =
  let topo = Topo.bypass ~short:1 ~long:2 () in
  let trace = gen_trace ~seed:43 () in
  let t = last_ts trace in
  let events =
    [
      { Chaos.at = t /. 3.0; switch = 2; action = `Fail };
      { Chaos.at = 2.0 *. t /. 3.0; switch = 2; action = `Repair };
    ]
  in
  let res =
    Chaos.run ~stages_per_switch:4 ~topo ~queries:(catalog ()) ~events trace
  in
  checkb "baseline produced reports" true (res.Chaos.baseline_reports > 0);
  checki "no unexplained diffs" 0 (List.length (Chaos.unexplained res));
  checki "two recovery events" 2 (List.length res.Chaos.recoveries);
  let repair =
    List.find (fun (r : Deploy.recovery) -> r.Deploy.r_event = `Repair)
      res.Chaos.recoveries
  in
  checkb "repair reinstalled the primary switch" true
    (repair.Deploy.r_rules_installed > 0)

let test_chaos_json_artifact_shape () =
  let topo = Topo.bypass ~short:1 ~long:2 () in
  let trace = gen_trace ~flows:600 ~seed:44 () in
  let events =
    [ { Chaos.at = last_ts trace /. 2.0; switch = 2; action = `Fail } ]
  in
  let res =
    Chaos.run ~stages_per_switch:4 ~topo
      ~queries:[ Newton_query.Catalog.q4 () ]
      ~events trace
  in
  match Chaos.to_json res with
  | Newton_util.Json.Obj fields ->
      List.iter
        (fun k -> checkb k true (List.mem_assoc k fields))
        [ "topology"; "queries"; "events"; "baseline_reports"; "chaos_reports";
          "matched"; "diffs"; "explained"; "unexplained"; "recoveries";
          "zero_unexplained_loss" ]
  | _ -> Alcotest.fail "chaos artifact must be a JSON object"

(* A query that cannot report in the failure-free run leaves two empty
   sides to compare: [silent] names it, so [--strict] fails. *)
let test_chaos_flags_silent_query () =
  let topo = Topo.bypass ~short:1 ~long:2 () in
  let trace = gen_trace ~flows:600 ~seed:44 () in
  let events =
    [ { Chaos.at = last_ts trace /. 2.0; switch = 2; action = `Fail } ]
  in
  let res =
    Chaos.run ~stages_per_switch:4 ~topo
      ~queries:[ Newton_query.Catalog.q1 ~th:1_000_000 (); Newton_query.Catalog.q4 () ]
      ~events trace
  in
  checkb "Q4 reported" true (res.Chaos.baseline_reports > 0);
  Alcotest.(check (list int)) "Q1 silent" [ 1 ] res.Chaos.silent

(* ---------------- merge strictness / ordering ---------------- *)

let test_instance_arrays_sorted_and_merge_preserves_order () =
  let e = Engine.create ~switch_id:0 () in
  ignore (Engine.install e ~uid:3 (q4 ()));
  let inst = Option.get (Engine.find_instance e 3) in
  let keys = List.map fst (Engine.instance_arrays inst) in
  checkb "sorted" true (List.sort compare keys = keys);
  let merged = Merge.instance_arrays [ inst; inst ] in
  Alcotest.(check (list (triple int int int))) "merge preserves engine order"
    keys (List.map fst merged)

(* ---------------- recovery telemetry keys ---------------- *)

let test_recovery_stats_keys () =
  let open Newton_telemetry in
  let sink = Stats.create () in
  Stats.bump sink Stats.Switch_failures 2;
  Stats.bump sink Stats.Slices_migrated 5;
  checki "failures" 2 (Stats.get sink Stats.Switch_failures);
  checki "migrated" 5 (Stats.get sink Stats.Slices_migrated);
  (* Dense, collision-free index space. *)
  let idx = List.map Stats.index Stats.all in
  checki "indices dense" (List.length Stats.all)
    (List.length (List.sort_uniq compare idx));
  List.iter
    (fun k -> checkb "named" true (String.length (Stats.name k) > 0))
    [ Stats.Switch_failures; Stats.Switch_repairs; Stats.Slices_migrated;
      Stats.State_cells_moved; Stats.Software_fallbacks ]

let test_controller_snapshot_has_recovery_counters () =
  let topo = Topo.bypass ~short:1 ~long:2 () in
  let dep = Deploy.create topo in
  ignore (Deploy.deploy ~stages_per_switch:4 dep (q4 ()));
  ignore (Deploy.fail_switch dep 2);
  let snap = Deploy.snapshot dep in
  let total name = Newton_telemetry.Snapshot.total name snap in
  checkb "switch_failures counted" true
    (total "newton_switch_failures_total" >= 1.0)

(* ---------------- facade ---------------- *)

let test_facade_fail_repair () =
  let open Newton in
  let topo = Topo.bypass ~short:1 ~long:2 () in
  let net = Network.create topo in
  ignore (Network.add_query ~stages_per_switch:4 net (Newton_query.Catalog.q4 ()));
  let r = Option.get (Network.fail_switch net 2) in
  checkb "facade fail recovers" true (r.Network.Deploy.r_event = `Fail);
  Alcotest.(check (list int)) "failed listed" [ 2 ] (Network.failed_switches net);
  checkb "facade repair" true (Network.repair_switch net 2 <> None);
  checkb "reports reconcile" true (Network.reconciled_reports net = [])

let suite =
  [
    ("placement: usable blocks failed switch", `Quick, test_placement_usable_blocks_switch);
    ("placement: usable exact = memo", `Quick, test_placement_usable_exact_matches_memo);
    ("absorb_state = ALU merge", `Quick, test_absorb_state_is_alu_merge);
    ("absorb_state: stale source is a no-op", `Quick, test_absorb_state_stale_src_is_noop);
    ("fail_switch migrates register-identical state", `Quick,
     test_fail_switch_migrates_register_identical);
    ("fail/repair idempotence + validation", `Quick, test_fail_switch_idempotent_and_validated);
    ("repair_switch rejoins cleanly", `Quick, test_repair_switch_rejoins);
    ("software fallback when no host survives", `Quick,
     test_software_fallback_when_no_host_survives);
    ("sole mode fail/repair", `Quick, test_sole_mode_fail_repair);
    ("differential: 9 queries, single fail", `Quick, test_differential_all_queries_single_fail);
    ("differential: fail then repair", `Quick, test_differential_fail_then_repair);
    ("chaos JSON artifact shape", `Quick, test_chaos_json_artifact_shape);
    ("chaos names a query with no baseline report", `Quick, test_chaos_flags_silent_query);
    ("instance_arrays sorted; merge preserves order", `Quick,
     test_instance_arrays_sorted_and_merge_preserves_order);
    ("recovery telemetry keys", `Quick, test_recovery_stats_keys);
    ("controller snapshot carries recovery counters", `Quick,
     test_controller_snapshot_has_recovery_counters);
    ("facade fail/repair", `Quick, test_facade_fail_repair);
  ]
