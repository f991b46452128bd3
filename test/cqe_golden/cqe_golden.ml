(* The CQE data path's observable output, for a golden diff.

   (a) The sixteen intent-churn residents (Q1, Q4 and the first
       fourteen rotating intents) on [linear 4] in CQE mode; halfway
       through the trace the oldest rotating intent is withdrawn and
       Q17 takes its place.
   (b) A catalog subset on [fat_tree 4], CQE plus one sole-switch
       deployment, with an aggregation switch failed a third of the
       way through and repaired at two thirds, and a core switch
       failed for the last sixth; four stages per switch, so queries
       span several switches and some defer to the analyzer.
   (c) A partial deployment on [linear 5] whose switch 2 is legacy,
       two stages per switch: the SP header is lost crossing it.

   Each scenario prints its deployment outcomes, the sorted reports,
   the message count, the SP overhead ratio, the software deferrals,
   the switches' window-roll, CQE-hop and SP-byte totals, and every
   engine counter from packets processed through software
   continuations, per switch and for the analyzer's software engine. *)

module Deploy = Newton_controller.Deploy
module Stats = Newton_telemetry.Stats
module Topo = Newton_network.Topo
module Packet = Newton_packet.Packet
module Field = Newton_packet.Field

let catalog id =
  match Newton_query.Catalog.find id with
  | Some q -> q
  | None -> invalid_arg (Printf.sprintf "no catalog query Q%d" id)

let deploy ?(mode = `Cqe) ?stages_per_switch d id =
  let compiled = Newton_compiler.Compose.compile (catalog id) in
  match Deploy.deploy_checked ~mode ?stages_per_switch d compiled with
  | Ok (uid, _) ->
      Printf.printf "deploy Q%d %s: uid %d\n" id
        (match mode with `Cqe -> "cqe" | `Sole -> "sole")
        uid;
      Some uid
  | Error diags ->
      Printf.printf "deploy Q%d: refused (%d diagnostics)\n" id
        (List.length diags);
      None

let trace ~seed ~flows =
  Newton_trace.Gen.packets
    (Newton_trace.Gen.generate ~attacks:Newton_trace.Attack.default_suite ~seed
       (Newton_trace.Profile.with_flows Newton_trace.Profile.caida_like flows))

(* Replays [packets], calling [at i] before packet [i]. *)
let replay ?(at = fun _ -> ()) d packets =
  let topo = Deploy.topo d in
  Array.iteri
    (fun i pkt ->
      at i;
      let host f =
        Topo.host_of_ip topo (Packet.get pkt f)
      in
      Deploy.process_packet d ~src_host:(host Field.Src_ip)
        ~dst_host:(host Field.Dst_ip) pkt)
    packets

let print_outcome name d =
  let reports =
    List.sort compare
      (List.map Newton_query.Report.to_string (Deploy.all_reports d))
  in
  Printf.printf "== %s: %d packets, %d reports\n" name (Deploy.packets d)
    (List.length reports);
  List.iter print_endline reports;
  Printf.printf "message_count %d\n" (Deploy.message_count d);
  Printf.printf "sp_overhead_ratio %.12f\n" (Deploy.sp_overhead_ratio d);
  Printf.printf "software_deferrals %d\n" (Deploy.software_deferrals d);
  let total key =
    let n = ref 0 in
    for s = 0 to Topo.num_switches (Deploy.topo d) - 1 do
      n := !n + Stats.get (Newton_runtime.Engine.sink (Deploy.engine d s)) key
    done;
    !n
  in
  List.iter
    (fun key -> Printf.printf "%s %d\n" (Stats.name key) (total key))
    [ Stats.Window_rolls; Stats.Cqe_hops; Stats.Sp_header_bytes ];
  let counters name engine =
    List.iter
      (fun key ->
        if Stats.index key <= Stats.index Stats.Software_continuations then
          Printf.printf "%s %s%s %d\n" name (Stats.name key)
            (String.concat ""
               (List.map (fun (k, v) -> Printf.sprintf "{%s=%s}" k v) (Stats.labels key)))
            (Stats.get (Newton_runtime.Engine.sink engine) key))
      Stats.all
  in
  for s = 0 to Topo.num_switches (Deploy.topo d) - 1 do
    counters (Printf.sprintf "switch %d" s) (Deploy.engine d s)
  done;
  counters "analyzer" (Deploy.software_engine d)

let churn () =
  let d = Deploy.create (Topo.linear 4) in
  let deploy = deploy ~stages_per_switch:12 d in
  List.iter (fun id -> ignore (deploy id)) [ 1; 4 ];
  let rotating = List.filter_map deploy [ 2; 3; 5; 6; 7; 8; 9; 10; 11; 12; 13; 14; 15; 16 ] in
  let packets = trace ~seed:11 ~flows:3_000 in
  let half = Array.length packets / 2 in
  replay d packets ~at:(fun i ->
      if i = half then begin
        ignore (Deploy.undeploy d (List.hd rotating));
        ignore (deploy 17)
      end);
  print_outcome "churn residents on linear:4" d

let fat_tree () =
  let d = Deploy.create (Topo.fat_tree 4) in
  List.iter (fun id -> ignore (deploy ~stages_per_switch:4 d id)) [ 1; 4; 6; 12; 13 ];
  ignore (deploy ~mode:`Sole d 3);
  let packets = trace ~seed:12 ~flows:1_500 in
  let n = Array.length packets in
  let event name f s =
    match f d s with
    | Some _ -> Printf.printf "%s switch %d\n" name s
    | None -> Printf.printf "%s switch %d: no-op\n" name s
  in
  replay d packets ~at:(fun i ->
      if i = n / 3 then event "fail" Deploy.fail_switch 5;
      if i = 2 * n / 3 then event "repair" Deploy.repair_switch 5;
      if i = 5 * n / 6 then event "fail" Deploy.fail_switch 0);
  print_outcome "catalog subset on fat_tree:4" d

let partial () =
  let d = Deploy.create (Topo.linear 5) in
  Deploy.set_enabled d 2 false;
  List.iter (fun id -> ignore (deploy ~stages_per_switch:2 d id)) [ 1; 2; 7; 11 ];
  replay d (trace ~seed:13 ~flows:800);
  print_outcome "legacy switch 2 on linear:5" d

let () =
  churn ();
  fat_tree ();
  partial ()
