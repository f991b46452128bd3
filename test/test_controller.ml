(** Tests for Newton_controller: Algorithm 2 placement and network-wide
    deployment. *)

open Newton_network
open Newton_controller

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let compile = Newton_compiler.Compose.compile
let q1 () = compile (Newton_query.Catalog.q1 ())
let q4 () = compile (Newton_query.Catalog.q4 ())

(* ---------------- slice_stages ---------------- *)

let test_slice_stages_exact_fit () =
  let r = Placement.slice_stages ~stages:6 ~stages_per_switch:3 in
  Alcotest.(check (array (pair int int))) "two slices" [| (0, 2); (3, 5) |] r

let test_slice_stages_remainder () =
  let r = Placement.slice_stages ~stages:7 ~stages_per_switch:3 in
  Alcotest.(check (array (pair int int))) "last slice short" [| (0, 2); (3, 5); (6, 6) |] r

let test_slice_stages_single () =
  let r = Placement.slice_stages ~stages:5 ~stages_per_switch:12 in
  Alcotest.(check (array (pair int int))) "one slice" [| (0, 4) |] r

let test_slice_stages_rejects () =
  checkb "rejects 0" true
    (try ignore (Placement.slice_stages ~stages:5 ~stages_per_switch:0); false
     with Invalid_argument _ -> true)

(* ---------------- Algorithm 2 ---------------- *)

let test_placement_single_slice_on_edges () =
  let topo = Topo.fat_tree 4 in
  let p = Placement.place ~stages_per_switch:12 ~topo (q4 ()) in
  checki "M=1" 1 (Placement.num_slices p);
  (* Slice 1 lands exactly on the edge switches. *)
  List.iter
    (fun s -> checkb "edge switch has slice 1" true (List.mem 1 (Placement.slices_of p s)))
    (Topo.edge_switches topo);
  (* Core switches are never at depth 1 from an edge switch. *)
  checkb "core has no slice at depth 1" true
    (List.for_all (fun c -> Placement.slices_of p c = []) [ 0; 1; 2; 3 ])

let test_placement_depth_layers () =
  (* Linear chain, edges at both ends: depth-d sets are symmetric. *)
  let topo = Topo.linear 3 in
  let compiled = q4 () in
  let stages = compiled.Newton_compiler.Compose.stats.Newton_compiler.Compose.stages in
  let per = max 1 ((stages + 2) / 3) in
  let p = Placement.place ~stages_per_switch:per ~topo compiled in
  checki "M=3" 3 (Placement.num_slices p);
  Alcotest.(check (list int)) "sw0 slices" [ 1; 3 ] (Placement.slices_of p 0);
  Alcotest.(check (list int)) "sw1 slices" [ 2 ] (Placement.slices_of p 1);
  Alcotest.(check (list int)) "sw2 slices" [ 1; 3 ] (Placement.slices_of p 2)

let test_placement_exact_equals_memo_small () =
  let topo = Topo.fat_tree 4 in
  let compiled = q4 () in
  let pe = Placement.place ~mode:`Exact ~stages_per_switch:3 ~topo compiled in
  let pm = Placement.place ~mode:`Memo ~stages_per_switch:3 ~topo compiled in
  Array.iteri
    (fun s ds -> Alcotest.(check (list int)) "exact = memo" ds (Placement.slices_of pm s))
    pe.Placement.slices

let test_placement_covers_all_shortest_paths () =
  let topo = Topo.fat_tree 4 in
  let compiled = q4 () in
  let p = Placement.place ~stages_per_switch:3 ~topo compiled in
  let route = Route.create topo in
  let hosts = Topo.hosts topo in
  List.iter
    (fun h1 ->
      List.iter
        (fun h2 ->
          if h1 < h2 then
            match Route.switch_path route ~src_host:h1 ~dst_host:h2 with
            | Some path -> checkb "path covered" true (Placement.covers p path)
            | None -> ())
        hosts)
    (List.filteri (fun i _ -> i < 4) hosts)

let test_placement_covers_after_failure () =
  let topo = Topo.fat_tree 4 in
  let compiled = q4 () in
  let p = Placement.place ~stages_per_switch:3 ~topo compiled in
  let route = Route.create topo in
  let hosts = Topo.hosts topo in
  let h1 = List.nth hosts 0 and h2 = List.nth hosts 15 in
  let before = Option.get (Route.switch_path route ~src_host:h1 ~dst_host:h2) in
  (match before with
  | a :: b :: _ -> Route.fail_link route (a, b)
  | _ -> Alcotest.fail "short path");
  (* Rerouted path is still fully covered: Algorithm 2's guarantee. *)
  let after = Option.get (Route.switch_path route ~src_host:h1 ~dst_host:h2) in
  checkb "covers rerouted path" true (Placement.covers p after)

let test_placement_entry_accounting () =
  let topo = Topo.linear 1 in
  let compiled = q1 () in
  let p = Placement.place ~stages_per_switch:12 ~topo compiled in
  checki "single switch holds the whole query"
    compiled.Newton_compiler.Compose.stats.Newton_compiler.Compose.rules
    (Placement.total_entries p);
  checki "one switch used" 1 (Placement.switches_used p)

let test_placement_avg_entries () =
  let topo = Topo.fat_tree 4 in
  let p = Placement.place ~stages_per_switch:12 ~topo (q4 ()) in
  checkb "avg = total / used" true
    (abs_float
       (Placement.avg_entries p
       -. float_of_int (Placement.total_entries p)
          /. float_of_int (Placement.switches_used p))
    < 1e-9)

let test_placement_total_grows_with_slices () =
  let topo = Topo.fat_tree 8 in
  let compiled = q4 () in
  let t1 = Placement.total_entries (Placement.place ~stages_per_switch:12 ~topo compiled) in
  let t3 = Placement.total_entries (Placement.place ~stages_per_switch:3 ~topo compiled) in
  checkb "more slices, more entries" true (t3 > t1)

let test_placement_custom_edges () =
  let topo = Topo.isp () in
  let p = Placement.place ~edge_switches:[ 0 ] ~stages_per_switch:12 ~topo (q4 ()) in
  Alcotest.(check (list int)) "only the CA edge has slice 1" [ 1 ] (Placement.slices_of p 0);
  checki "one switch used at M=1" 1 (Placement.switches_used p)

(* qcheck: on random linear topologies, every path from an edge is
   covered up to M hops. *)
let qcheck_placement_coverage =
  QCheck.Test.make ~count:50 ~name:"placement covers bounded paths"
    QCheck.(pair (int_range 1 6) (int_range 1 4))
    (fun (n, per) ->
      let topo = Topo.linear n in
      let compiled = q4 () in
      let p = Placement.place ~stages_per_switch:per ~topo compiled in
      (* every prefix of the chain starting at either end is a possible
         forwarding path *)
      let ok = ref true in
      for len = 1 to n do
        let fwd = List.init len Fun.id in
        let bwd = List.init len (fun i -> n - 1 - i) in
        if not (Placement.covers p fwd && Placement.covers p bwd) then ok := false
      done;
      !ok)

(* ---------------- Deploy ---------------- *)

let test_deploy_and_undeploy () =
  let ctl = Deploy.create (Topo.linear 2) in
  let uid, lat = Deploy.deploy ctl (q1 ()) in
  checkb "install latency ms-scale" true (lat > 0.0 && lat < 0.05);
  checkb "deployment listed" true (Deploy.find_deployment ctl uid <> None);
  (match Deploy.undeploy ctl uid with
  | Some l -> checkb "removal latency positive" true (l > 0.0)
  | None -> Alcotest.fail "undeploy failed");
  checkb "gone" true (Deploy.find_deployment ctl uid = None);
  Alcotest.(check (option (float 1.0))) "double undeploy" None (Deploy.undeploy ctl uid)

let test_sole_mode_installs_everywhere () =
  let topo = Topo.linear 3 in
  let ctl = Deploy.create topo in
  let _ = Deploy.deploy ~mode:`Sole ctl (q1 ()) in
  List.iter
    (fun s ->
      checki "full instance on each switch" 1
        (List.length (Newton_runtime.Engine.instances (Deploy.engine ctl s))))
    (Topo.switches topo)

let test_cqe_messages_flat_sole_linear () =
  let trace =
    Newton_trace.Gen.generate
      ~attacks:
        [ Newton_trace.Attack.Syn_flood
            { victim = Newton_trace.Attack.host_of 1; attackers = 30; syns_per_attacker = 20 } ]
      ~seed:4
      (Newton_trace.Profile.with_flows Newton_trace.Profile.caida_like 300)
  in
  let run mode hops =
    let topo = Topo.linear hops in
    let ctl = Deploy.create topo in
    let compiled = q1 () in
    let stages = compiled.Newton_compiler.Compose.stats.Newton_compiler.Compose.stages in
    let per = max 1 ((stages + hops - 1) / hops) in
    let _ = Deploy.deploy ~mode ~stages_per_switch:per ctl compiled in
    let src = Topo.num_switches topo in
    Newton_trace.Gen.iter
      (fun p -> Deploy.process_packet ctl ~src_host:src ~dst_host:(src + 1) p)
      trace;
    Deploy.message_count ctl
  in
  let cqe1 = run `Cqe 1 and cqe3 = run `Cqe 3 in
  let sole1 = run `Sole 1 and sole3 = run `Sole 3 in
  checkb "some reports" true (cqe1 > 0);
  checki "CQE flat in hops" cqe1 cqe3;
  checki "sole grows linearly" (3 * sole1) sole3

let test_sp_overhead_counted () =
  let topo = Topo.linear 2 in
  let ctl = Deploy.create topo in
  let compiled = q1 () in
  let stages = compiled.Newton_compiler.Compose.stats.Newton_compiler.Compose.stages in
  let _ = Deploy.deploy ~stages_per_switch:((stages + 1) / 2) ctl compiled in
  let src = Topo.num_switches topo in
  for i = 1 to 10 do
    Deploy.process_packet ctl ~src_host:src ~dst_host:(src + 1)
      (Newton_packet.Packet.make ~ts:0.01 ~src_ip:i ~dst_ip:7 ~proto:6
         ~tcp_flags:Newton_packet.Field.Tcp_flag.syn ())
  done;
  checkb "sp bytes accounted" true (Deploy.sp_overhead_ratio ctl > 0.0)

let test_deploy_resilient_to_failure () =
  (* Deploy on a fat-tree, fail a link mid-trace: the rerouted traffic is
     still monitored (Algorithm 2 placed slices on all possible paths). *)
  let topo = Topo.fat_tree 4 in
  let ctl = Deploy.create topo in
  let _ = Deploy.deploy ~stages_per_switch:12 ctl (compile (Newton_query.Catalog.q1 ~th:10 ())) in
  let hosts = Topo.hosts topo in
  let h1 = List.nth hosts 0 and h2 = List.nth hosts 15 in
  let syn i ts =
    Newton_packet.Packet.make ~ts ~src_ip:i ~dst_ip:999 ~proto:6
      ~tcp_flags:Newton_packet.Field.Tcp_flag.syn ()
  in
  for i = 1 to 15 do
    Deploy.process_packet ctl ~src_host:h1 ~dst_host:h2 (syn i 0.01)
  done;
  (* Fail the first link of the current path; traffic reroutes. *)
  let path = Option.get (Route.switch_path (Deploy.route ctl) ~src_host:h1 ~dst_host:h2) in
  (match path with
  | a :: b :: _ -> Deploy.fail_link ctl (a, b)
  | _ -> Alcotest.fail "short path");
  for i = 16 to 30 do
    Deploy.process_packet ctl ~src_host:h1 ~dst_host:h2 (syn i 0.02)
  done;
  (* 30 SYNs to one host crossed the threshold despite the reroute. *)
  checkb "monitoring survives the reroute" true (Deploy.message_count ctl >= 1)

(* A switch counts a packet once however many deployments run a slice
   of it there: per switch, [packets_seen] is the number of packets
   during which its CQE hop counter moved. *)
let test_packets_seen_once_per_switch () =
  let topo = Topo.linear 4 in
  let ctl = Deploy.create topo in
  List.iter
    (fun id ->
      ignore
        (Deploy.deploy ~stages_per_switch:4 ctl
           (compile (Option.get (Newton_query.Catalog.find id)))))
    [ 1; 4; 6; 7 ];
  let trace =
    Newton_trace.Gen.generate ~attacks:Newton_trace.Attack.default_suite ~seed:45
      (Newton_trace.Profile.with_flows Newton_trace.Profile.caida_like 300)
  in
  let n = Topo.num_switches topo in
  let sink s = Newton_runtime.Engine.sink (Deploy.engine ctl s) in
  let hops s = Newton_telemetry.Stats.get (sink s) Newton_telemetry.Stats.Cqe_hops in
  let expected = Array.make n 0 in
  Newton_trace.Gen.iter
    (fun p ->
      let before = Array.init n hops in
      let host f =
        Topo.host_of_ip topo (Newton_packet.Packet.get p f)
      in
      Deploy.process_packet ctl ~src_host:(host Newton_packet.Field.Src_ip)
        ~dst_host:(host Newton_packet.Field.Dst_ip) p;
      Array.iteri
        (fun s b -> if hops s > b then expected.(s) <- expected.(s) + 1)
        before)
    trace;
  for s = 0 to n - 1 do
    let seen = Newton_runtime.Engine.packets_seen (Deploy.engine ctl s) in
    checki (Printf.sprintf "switch %d packets seen" s) expected.(s) seen;
    checki (Printf.sprintf "switch %d counter" s) seen
      (Newton_telemetry.Stats.get (sink s) Newton_telemetry.Stats.Packets_processed);
    checkb (Printf.sprintf "switch %d ran several slices per packet" s) true
      (hops s > seen)
  done;
  checkb "some packets crossed the fabric" true (expected.(0) > 0)

let test_layout_placed_at_creation () =
  let ctl = Deploy.create (Topo.linear 2) in
  let sw = Deploy.switch ctl 0 in
  let used = Newton_dataplane.Switch.total_used sw in
  let budget = Newton_dataplane.Switch.total_budget sw in
  checkb "layout consumes resources" true (used.Newton_dataplane.Resource.sram > 0.0);
  checkb "layout fits the pipeline" true (Newton_dataplane.Resource.fits used budget);
  (* the two per-stage suites saturate SALU exactly *)
  let s0 = Newton_dataplane.Switch.stage sw 0 in
  Alcotest.(check (float 1e-9)) "SALU saturated" 4.0
    (Newton_dataplane.Stage.used s0).Newton_dataplane.Resource.salu;
  Alcotest.(check (float 1e-9)) "TCAM saturated" 24.0
    (Newton_dataplane.Stage.used s0).Newton_dataplane.Resource.tcam

let test_deploy_plan () =
  let topo = Topo.linear 2 in
  let ctl = Deploy.create topo in
  (* deploy one query at a time, each compiled with its own
     non-default register width *)
  let uids =
    List.map
      (fun (registers, q) ->
        let options =
          { Newton_compiler.Decompose.default_options with
            Newton_compiler.Decompose.registers }
        in
        fst (Deploy.deploy ctl (Newton_compiler.Compose.compile ~options q)))
      [ (8192, Newton_query.Catalog.q1 ()); (8192, Newton_query.Catalog.q4 ()) ]
  in
  checki "two deployments" 2 (List.length uids);
  (* run traffic and both fire *)
  let trace =
    Newton_trace.Gen.generate ~attacks:Newton_trace.Attack.default_suite ~seed:44
      (Newton_trace.Profile.with_flows Newton_trace.Profile.caida_like 400)
  in
  let src = Topo.num_switches topo in
  Newton_trace.Gen.iter
    (fun p -> Deploy.process_packet ctl ~src_host:src ~dst_host:(src + 1) p)
    trace;
  let qids =
    Deploy.all_reports ctl
    |> List.map (fun r -> r.Newton_query.Report.query_id)
    |> List.sort_uniq compare
  in
  Alcotest.(check (list int)) "planned queries fire" [ 1; 4 ] qids

let test_deploy_capacity_rollback () =
  let ctl = Deploy.create (Topo.linear 1) in
  let compiled = q4 () in
  (* Saturate a module cell: Q4 clones until the engine rejects. *)
  let deployed = ref 0 in
  (try
     for _ = 1 to 400 do
       ignore (Deploy.deploy ctl compiled);
       incr deployed
     done
   with Newton_runtime.Engine.Rules_exhausted _ -> ());
  checkb "eventually rejected" true (!deployed < 400);
  let engine = Deploy.engine ctl 0 in
  (* every live instance belongs to a successful deployment: counts
     match, no orphan slices from the failed attempt *)
  checki "no partial residue" !deployed
    (List.length (Newton_runtime.Engine.instances engine));
  checki "deployment list consistent" !deployed
    (List.length (Deploy.deployments ctl))

let suite =
  [
    ("slice_stages exact fit", `Quick, test_slice_stages_exact_fit);
    ("slice_stages remainder", `Quick, test_slice_stages_remainder);
    ("slice_stages single", `Quick, test_slice_stages_single);
    ("slice_stages rejects", `Quick, test_slice_stages_rejects);
    ("placement single slice on edges", `Quick, test_placement_single_slice_on_edges);
    ("placement depth layers", `Quick, test_placement_depth_layers);
    ("placement exact = memo (small)", `Quick, test_placement_exact_equals_memo_small);
    ("placement covers shortest paths", `Quick, test_placement_covers_all_shortest_paths);
    ("placement covers after failure", `Quick, test_placement_covers_after_failure);
    ("placement entry accounting", `Quick, test_placement_entry_accounting);
    ("placement avg entries", `Quick, test_placement_avg_entries);
    ("placement total grows with slices", `Quick, test_placement_total_grows_with_slices);
    ("placement custom edges", `Quick, test_placement_custom_edges);
    QCheck_alcotest.to_alcotest qcheck_placement_coverage;
    ("layout placed at creation", `Quick, test_layout_placed_at_creation);
    ("deploy capacity rollback", `Quick, test_deploy_capacity_rollback);
    ("deploy plan", `Quick, test_deploy_plan);
    ("deploy and undeploy", `Quick, test_deploy_and_undeploy);
    ("sole mode installs everywhere", `Quick, test_sole_mode_installs_everywhere);
    ("cqe flat vs sole linear", `Quick, test_cqe_messages_flat_sole_linear);
    ("sp overhead counted", `Quick, test_sp_overhead_counted);
    ("packets seen once per switch", `Quick, test_packets_seen_once_per_switch);
    ("deploy resilient to failure", `Quick, test_deploy_resilient_to_failure);
  ]
