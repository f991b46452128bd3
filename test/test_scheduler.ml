(** Tests for the concurrent-query scheduler (the §7 open question). *)

open Newton_query
open Newton_controller

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let d ?(weight = 1.0) ?(min_registers = 256) ?(max_registers = 8192) q =
  Scheduler.demand ~weight ~min_registers ~max_registers q

let test_demand_validation () =
  checkb "rejects zero weight" true
    (try ignore (Scheduler.demand ~weight:0.0 (Catalog.q1 ())); false
     with Invalid_argument _ -> true);
  checkb "rejects inverted band" true
    (try ignore (Scheduler.demand ~min_registers:100 ~max_registers:50 (Catalog.q1 ())); false
     with Invalid_argument _ -> true)

let test_everything_fits_when_pool_is_large () =
  let plan =
    Scheduler.plan ~register_pool:1_000_000
      (List.map (fun q -> d q) (Catalog.all ()))
  in
  checki "all admitted" 9 (List.length plan.Scheduler.admitted);
  checki "none rejected" 0 (List.length plan.Scheduler.rejected)

let test_rejects_when_pool_too_small () =
  let plan =
    Scheduler.plan ~register_pool:2_000
      (List.map (fun q -> d ~min_registers:512 q) (Catalog.all ()))
  in
  checkb "some rejected under pressure" true (plan.Scheduler.rejected <> []);
  checkb "pool respected" true
    (plan.Scheduler.pool_used <= plan.Scheduler.pool_total)

let test_minimums_guaranteed () =
  let plan =
    Scheduler.plan ~register_pool:50_000
      (List.map (fun q -> d ~min_registers:512 q) (Catalog.all ()))
  in
  List.iter
    (fun (a : Scheduler.assignment) ->
      checkb "per-array minimum honoured" true (a.Scheduler.registers >= 512))
    plan.Scheduler.admitted

let test_waterfill_favours_heavy_queries () =
  let q1 = Catalog.q1 () and q4 = Catalog.q4 () in
  let plan =
    Scheduler.plan ~register_pool:50_000
      [ d ~weight:10.0 ~max_registers:65536 q1;
        d ~weight:1.0 ~max_registers:65536 q4 ]
  in
  let r q = Option.get (Scheduler.registers_of plan q) in
  checkb "10x weight gets more registers per array" true (r q1 > r q4)

let test_waterfill_respects_max () =
  let q1 = Catalog.q1 () in
  let plan =
    Scheduler.plan ~register_pool:10_000_000
      [ d ~max_registers:4096 q1 ]
  in
  checkb "capped at max" true
    (Option.get (Scheduler.registers_of plan q1) <= 4096)

let test_rule_capacity_admission () =
  (* Module tables hold 256 rules per cell; 300 Q4 clones cannot all be
     admitted no matter the register pool. *)
  let demands = List.init 300 (fun _ -> d ~min_registers:1 (Catalog.q4 ())) in
  let plan = Scheduler.plan ~register_pool:10_000_000 demands in
  checki "admission stops at the rule capacity"
    Newton_dataplane.Module_cost.rules_per_module
    (List.length plan.Scheduler.admitted);
  checki "rest rejected" (300 - 256) (List.length plan.Scheduler.rejected)

let test_plan_is_installable () =
  (* The planned register budgets compile and install within engine
     capacity. *)
  let plan =
    Scheduler.plan ~register_pool:100_000
      [ d ~weight:4.0 (Catalog.q1 ()); d (Catalog.q4 ()); d (Catalog.q5 ()) ]
  in
  let e = Newton_runtime.Engine.create ~switch_id:0 () in
  List.iter
    (fun (a : Scheduler.assignment) ->
      let options =
        { Newton_compiler.Decompose.default_options with
          registers = a.Scheduler.registers }
      in
      ignore
        (Newton_runtime.Engine.install e
           (Newton_compiler.Compose.compile ~options a.Scheduler.a_query)))
    plan.Scheduler.admitted;
  checki "all planned queries installed" 3
    (List.length (Newton_runtime.Engine.instances e))

let test_allocation_improves_skewed_accuracy () =
  (* Two Q1-style detectors: one watches heavy traffic (many keys), one
     light.  Weighted allocation beats an even split on the heavy one's
     accuracy at equal total memory. *)
  let heavy_trace =
    Newton_trace.Gen.generate
      ~attacks:
        [ Newton_trace.Attack.Syn_flood
            { victim = Newton_trace.Attack.host_of 1; attackers = 60; syns_per_attacker = 40 } ]
      ~seed:42
      (Newton_trace.Profile.with_flows
         { Newton_trace.Profile.caida_like with mean_flow_pkts = 4.0 }
         12_000)
  in
  let q = Catalog.q1 ~th:5 () in
  let truth = Ref_eval.evaluate q (Newton_trace.Gen.packets heavy_trace) in
  let precision registers =
    let options =
      { Newton_compiler.Decompose.default_options with registers }
    in
    let dev = Newton.Device.create ~options () in
    let _ = Newton.Device.add_query dev q in
    Newton.Device.process_trace dev heavy_trace;
    (Newton_runtime.Analyzer.score ~truth
       ~detected:(Newton.Device.reports dev)).Newton_runtime.Analyzer.precision
  in
  (* Even split of a 2048-register pool across two queries: 1024 each.
     Weighted plan gives the heavy query most of the pool. *)
  let plan =
    Scheduler.plan ~register_pool:(2 * 2048 * 2 (* arrays *) )
      [ Scheduler.demand ~weight:8.0 ~min_registers:256 ~max_registers:4096 q;
        Scheduler.demand ~weight:1.0 ~min_registers:256 ~max_registers:4096 (Catalog.by_id 10) ]
  in
  let planned = Option.get (Scheduler.registers_of plan q) in
  checkb "heavy query gets more than an even split" true (planned > 1024);
  checkb "weighted allocation at least as accurate" true
    (precision planned >= precision 1024)

let suite =
  [
    ("demand validation", `Quick, test_demand_validation);
    ("everything fits in a large pool", `Quick, test_everything_fits_when_pool_is_large);
    ("rejects when pool too small", `Quick, test_rejects_when_pool_too_small);
    ("minimums guaranteed", `Quick, test_minimums_guaranteed);
    ("waterfill favours heavy queries", `Quick, test_waterfill_favours_heavy_queries);
    ("waterfill respects max", `Quick, test_waterfill_respects_max);
    ("rule capacity admission", `Quick, test_rule_capacity_admission);
    ("plan is installable", `Quick, test_plan_is_installable);
    ("allocation improves skewed accuracy", `Slow, test_allocation_improves_skewed_accuracy);
  ]
