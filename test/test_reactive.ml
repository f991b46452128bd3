(** Tests for the reactive-intent service (automatic drill-down). *)

open Newton_query
open Newton

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* Drill-down template: enumerate UDP sources flooding the reported
   victim. *)
let sources_template (r : Report.t) =
  let victim = r.Report.keys.(0) in
  Ast.chain ~id:(500 + (victim land 0xff)) ~name:"drill_sources"
    ~description:"sources flooding the victim"
    [ Ast.Filter
        [ Ast.field_is Newton_packet.Field.Proto Newton_packet.Field.Protocol.udp;
          Ast.field_is Newton_packet.Field.Dst_ip victim ];
      Ast.Map (Ast.keys [ Newton_packet.Field.Src_ip ]);
      Ast.Reduce { keys = Ast.keys [ Newton_packet.Field.Src_ip ]; agg = Ast.Count };
      Ast.Filter [ Ast.result_gt 3 ];
      Ast.Map (Ast.keys [ Newton_packet.Field.Src_ip ]) ]

let ddos_trace ?(victims = 1) () =
  let attacks =
    List.init victims (fun i ->
        Newton_trace.Attack.Udp_ddos
          { victim = Newton_trace.Attack.host_of (5 + i); attackers = 80;
            pkts_per_attacker = 15 })
  in
  Newton_trace.Gen.generate ~attacks ~seed:31
    (Newton_trace.Profile.with_flows Newton_trace.Profile.caida_like 800)

let mk_service ?(max_instances = 4) () =
  let device = Newton.Device.create () in
  let _ = Newton.Device.add_query device (Catalog.q5 ()) in
  ( device,
    Reactive.create device
      [ { Reactive.trigger_id = 5; template = sources_template; max_instances } ] )

let test_drilldown_spawns_on_detection () =
  let device, svc = mk_service () in
  Reactive.process_trace svc (ddos_trace ());
  checki "one drill-down spawned" 1 (List.length (Reactive.spawned svc));
  (* The spawned query found the attack sources on the same pass. *)
  let attackers =
    Newton.Device.reports device
    |> List.filter (fun r -> r.Report.query_id >= 500)
    |> List.map (fun r -> r.Report.keys.(0))
    |> List.sort_uniq compare
  in
  checkb "sources enumerated" true (List.length attackers >= 20);
  checkb "no forwarding interruption" true
    (Newton_dataplane.Switch.outage_time (Newton.Device.switch device) = 0.0)

let test_no_duplicate_spawns () =
  let _, svc = mk_service () in
  let trace = ddos_trace () in
  Reactive.process_trace svc trace;
  Reactive.process_trace svc trace;
  checki "same victim never spawns twice" 1 (List.length (Reactive.spawned svc))

let test_instance_budget () =
  let _, svc = mk_service ~max_instances:2 () in
  Reactive.process_trace svc (ddos_trace ~victims:4 ());
  checkb "budget respected" true (List.length (Reactive.spawned svc) <= 2)

let test_multiple_victims_multiple_drilldowns () =
  let _, svc = mk_service ~max_instances:8 () in
  Reactive.process_trace svc (ddos_trace ~victims:3 ());
  checki "one drill-down per victim" 3 (List.length (Reactive.spawned svc))

let test_retract_all () =
  let device, svc = mk_service () in
  Reactive.process_trace svc (ddos_trace ());
  let before = List.length (Newton.Device.queries device) in
  checki "removed as many as spawned" 1 (Reactive.retract_all svc);
  checki "device back to the standing query" (before - 1)
    (List.length (Newton.Device.queries device));
  checki "spawn list cleared" 0 (List.length (Reactive.spawned svc))

let test_untriggered_rules_do_nothing () =
  let device = Newton.Device.create () in
  let _ = Newton.Device.add_query device (Catalog.q5 ()) in
  let svc =
    Reactive.create device
      [ { Reactive.trigger_id = 99; template = sources_template; max_instances = 4 } ]
  in
  Reactive.process_trace svc (ddos_trace ());
  checki "trigger on an absent query id spawns nothing" 0
    (List.length (Reactive.spawned svc))

let suite =
  [
    ("drilldown spawns on detection", `Quick, test_drilldown_spawns_on_detection);
    ("no duplicate spawns", `Quick, test_no_duplicate_spawns);
    ("instance budget", `Quick, test_instance_budget);
    ("multiple victims multiple drilldowns", `Quick, test_multiple_victims_multiple_drilldowns);
    ("retract all", `Quick, test_retract_all);
    ("untriggered rules do nothing", `Quick, test_untriggered_rules_do_nothing);
  ]
