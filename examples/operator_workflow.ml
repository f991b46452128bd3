(** Operator workflow: textual intents, automatic drill-down, and a
    report dashboard — the extension features working together.

    Run with: [dune exec examples/operator_workflow.exe]

    1. Standing intents are written in the query DSL (what an operator
       would type into the shell or check into config management).
    2. A reactive rule turns UDP-DDoS detections into per-victim
       attacker enumeration automatically, at rule-install speed.
    3. The report series renders an incident dashboard: per-query
       sparklines, active spans and top offenders. *)

open Newton

let standing_intents =
  [ (* hosts receiving too many new TCP connections *)
    "filter(proto == tcp && tcp.flags == syn) | map(dip) | reduce(dip, \
     count) | filter(count > 30) | map(dip)";
    (* UDP DDoS victims by distinct sources *)
    "filter(proto == udp) | map(dip, sip) | distinct(dip, sip) | map(dip) | \
     reduce(dip, count) | filter(count > 35) | map(dip)";
    (* byte heavy hitters by /24 destination prefix *)
    "map(dip & 0xFFFFFF00) | reduce(dip & 0xFFFFFF00, sum len) | \
     filter(count > 200000) | map(dip & 0xFFFFFF00)" ]

let drilldown (r : Report.t) =
  let victim = r.Report.keys.(0) in
  Query.chain ~id:(300 + (victim land 0xff)) ~name:"ddos_sources"
    ~description:"sources flooding the victim"
    [ Query.Filter
        [ Query.field_is Field.Proto Field.Protocol.udp;
          Query.field_is Field.Dst_ip victim ];
      Query.Map (Query.keys [ Field.Src_ip ]);
      Query.Reduce { keys = Query.keys [ Field.Src_ip ]; agg = Query.Count };
      Query.Filter [ Query.result_gt 3 ];
      Query.Map (Query.keys [ Field.Src_ip ]) ]

let () =
  print_endline "== Operator workflow: DSL intents + reactive drill-down ==\n";
  let device = Device.create () in
  List.iteri
    (fun i text ->
      let q =
        Newton_query.Parser.parse ~id:(10 + i)
          ~name:(Printf.sprintf "intent%d" (i + 1))
          text
      in
      let _, lat = Device.add_query device q in
      Printf.printf "intent %d (%s) installed in %.1f ms\n" (i + 1) q.Query.name
        (lat *. 1e3))
    standing_intents;

  let svc =
    Reactive.create device
      [ { Reactive.trigger_id = 11; template = drilldown; max_instances = 4 } ]
  in
  let trace =
    Trace.generate
      ~attacks:
        [ Attack.Udp_ddos
            { victim = Packet.ip_of_string "10.200.0.5"; attackers = 80;
              pkts_per_attacker = 15 };
          Attack.Syn_flood
            { victim = Packet.ip_of_string "10.200.0.1"; attackers = 40;
              syns_per_attacker = 25 } ]
      ~seed:23
      (Trace_profile.with_flows Trace_profile.caida_like 2500)
  in
  Printf.printf "\nreplaying %d packets with the reactive loop engaged...\n"
    (Trace.length trace);
  Reactive.process_trace svc trace;

  List.iter
    (fun (s : Reactive.spawned) ->
      Printf.printf "  drill-down spawned for %s\n"
        (Packet.ip_to_string s.Reactive.trigger_keys.(0)))
    (Reactive.spawned svc);

  print_endline "\n-- incident dashboard --";
  let series = Newton_query.Series.of_reports (Device.reports device) in
  print_string (Newton_query.Series.summary ~top:2 series);

  Printf.printf "\nmonitoring overhead: %d messages for %d packets (%.3f%%)\n"
    (Device.message_count device) (Trace.length trace)
    (100.0
    *. float_of_int (Device.message_count device)
    /. float_of_int (Trace.length trace));
  Printf.printf "forwarding outage across everything: %.0f s\n"
    (Newton_dataplane.Switch.outage_time (Device.switch device))
