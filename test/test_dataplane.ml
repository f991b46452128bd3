(** Tests for Newton_dataplane: resources, tables, stages, switch and
    reconfiguration models. *)

open Newton_dataplane

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf = Alcotest.check (Alcotest.float 1e-9)

(* ---------------- Resource ---------------- *)

let test_resource_add_sub () =
  let a = Resource.make ~sram:2.0 ~vliw:3.0 () in
  let b = Resource.make ~sram:1.0 ~tcam:4.0 () in
  let s = Resource.add a b in
  checkf "sram adds" 3.0 s.Resource.sram;
  checkf "tcam adds" 4.0 s.Resource.tcam;
  let d = Resource.sub s b in
  checkf "sub recovers" 2.0 d.Resource.sram

let test_resource_scale () =
  let a = Resource.make ~salu:2.0 () in
  checkf "scaled" 1.0 (Resource.scale a 0.5).Resource.salu

let test_resource_fits () =
  let budget = Resource.make ~sram:10.0 ~vliw:10.0 () in
  checkb "fits" true (Resource.fits (Resource.make ~sram:10.0 () ) budget);
  checkb "overflow" false (Resource.fits (Resource.make ~sram:10.1 ()) budget)

let test_resource_sum () =
  let parts = [ Resource.make ~sram:1.0 (); Resource.make ~sram:2.0 () ] in
  checkf "sum" 3.0 (Resource.sum parts).Resource.sram

let test_resource_utilization () =
  let u = Resource.utilization (Resource.make ~sram:20.0 ()) Resource.stage_budget in
  checkf "sram util" 0.25 u.Resource.sram;
  checkf "zero-budget maps to zero" 0.0
    (Resource.utilization (Resource.make ~sram:1.0 ()) (Resource.make ())).Resource.sram

(* ---------------- Module costs ---------------- *)

let test_suite_fits_stage () =
  checkb "compact suite fits one stage" true
    (Resource.fits Module_cost.suite Resource.stage_budget)

let test_naive_is_quarter_suite () =
  checkf "naive per-stage = suite/4" (Module_cost.suite.Resource.sram /. 4.0)
    Module_cost.naive_per_stage.Resource.sram

let test_state_bank_scales_with_registers () =
  let small = Module_cost.state_bank ~registers:256 () in
  let large = Module_cost.state_bank ~registers:65536 () in
  checkb "more registers, more SRAM" true (large.Resource.sram > small.Resource.sram)

let test_amortized () =
  let full = Module_cost.cost Module_cost.K in
  let am = Module_cost.amortized Module_cost.K in
  checkf "1/256 of module" (full.Resource.vliw /. 256.0) am.Resource.vliw

let test_primitive_cost_monotone_in_suites () =
  let one = Module_cost.primitive_cost ~suites:1 in
  let three = Module_cost.primitive_cost ~suites:3 in
  checkf "3x suites = 3x cost" (one.Resource.crossbar *. 3.0) three.Resource.crossbar

(* ---------------- Stage ---------------- *)

let test_stage_place_unplace () =
  let s = Stage.create 0 in
  Stage.place s ~name:"K" (Resource.make ~sram:4.0 ());
  checkf "used tracked" 4.0 (Stage.used s).Resource.sram;
  checkb "unplace" true (Stage.unplace s ~name:"K");
  checkf "freed" 0.0 (Stage.used s).Resource.sram;
  checkb "unplace unknown" false (Stage.unplace s ~name:"Z")

let test_stage_overflow () =
  let s = Stage.create ~budget:(Resource.make ~sram:1.0 ()) 3 in
  Alcotest.check_raises "stage full"
    (Stage.Stage_full { stage = 3; component = "big" }) (fun () ->
      Stage.place s ~name:"big" (Resource.make ~sram:2.0 ()))

(* ---------------- Switch & Reconfig ---------------- *)

let test_switch_structure () =
  let sw = Switch.create ~id:1 () in
  checki "12 stages by default" 12 (Switch.num_stages sw);
  checki "id" 1 (Switch.id sw)

let test_switch_rule_ops_latency () =
  let sw = Switch.create ~id:0 () in
  let lat = Switch.install_rules sw ~count:20 in
  checkb "positive latency" true (lat > 0.0);
  checkb "rule-update never interrupts: ms scale" true (lat < 0.05);
  checki "rules tracked" 20 (Switch.monitor_rules sw);
  let _ = Switch.remove_rules sw ~count:20 in
  checki "rules freed" 0 (Switch.monitor_rules sw)

let test_switch_install_scales_with_rules () =
  let sw = Switch.create ~id:0 () in
  let l1 = Switch.install_rules sw ~count:5 in
  let l2 = Switch.install_rules sw ~count:200 in
  checkb "more rules, more latency" true (l2 > l1)

let test_switch_full_reload_outage () =
  let sw = Switch.create ~id:0 ~fwd_entries:6000 () in
  let outage = Switch.full_reload ~offered_pps:1e6 sw in
  checkb "seconds-scale outage" true (outage > 5.0 && outage < 10.0);
  checkb "packets dropped" true (Switch.dropped_during_outage sw > 4_000_000);
  checkb "outage accounted" true (Switch.outage_time sw = outage)

let test_reload_linear_in_entries () =
  let o1 = Reconfig.reload_outage ~fwd_entries:10_000 () in
  let o2 = Reconfig.reload_outage ~fwd_entries:60_000 () in
  checkf "linear growth" (Reconfig.reload_per_entry *. 50_000.0) (o2 -. o1);
  checkb "paper scale at 60K (~0.5 min)" true (o2 > 25.0 && o2 < 35.0)

let test_install_latency_calibration () =
  (* Fig. 11: a ~11-rule query (Q1) installs in ~5 ms, and the largest
     (~48 rules) stays under 20 ms. *)
  let rng = Newton_util.Prng.of_int 1 in
  let q1 = Reconfig.install_latency rng ~rules:11 in
  checkb "Q1-scale ~5ms" true (q1 > 0.003 && q1 < 0.009);
  let big = Reconfig.install_latency rng ~rules:48 in
  checkb "largest under 20ms" true (big < 0.020)

let test_switch_placement_resources () =
  let sw = Switch.create ~id:0 () in
  Switch.place sw ~stage:0 ~name:"suite" Module_cost.suite;
  checkb "fits" true (Resource.fits (Switch.total_used sw) (Switch.total_budget sw));
  checkb "can place another" true (Switch.can_place sw ~stage:0 Module_cost.key_selection)

let suite =
  [
    ("resource add/sub", `Quick, test_resource_add_sub);
    ("resource scale", `Quick, test_resource_scale);
    ("resource fits", `Quick, test_resource_fits);
    ("resource sum", `Quick, test_resource_sum);
    ("resource utilization", `Quick, test_resource_utilization);
    ("module suite fits a stage", `Quick, test_suite_fits_stage);
    ("naive per-stage is quarter suite", `Quick, test_naive_is_quarter_suite);
    ("state bank scales with registers", `Quick, test_state_bank_scales_with_registers);
    ("amortized module cost", `Quick, test_amortized);
    ("primitive cost monotone", `Quick, test_primitive_cost_monotone_in_suites);
    ("stage place/unplace", `Quick, test_stage_place_unplace);
    ("stage overflow", `Quick, test_stage_overflow);
    ("switch structure", `Quick, test_switch_structure);
    ("switch rule ops latency", `Quick, test_switch_rule_ops_latency);
    ("switch install scales with rules", `Quick, test_switch_install_scales_with_rules);
    ("switch full reload outage", `Quick, test_switch_full_reload_outage);
    ("reload linear in entries", `Quick, test_reload_linear_in_entries);
    ("install latency calibration", `Quick, test_install_latency_calibration);
    ("switch placement resources", `Quick, test_switch_placement_resources);
  ]
