(** Tests for Newton_network: topologies, routing, failures. *)

open Newton_network

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* ---------------- Topologies ---------------- *)

let test_linear_structure () =
  let t = Topo.linear 3 in
  checki "3 switches" 3 (Topo.num_switches t);
  checki "2 hosts" 2 (Topo.num_hosts t);
  checki "2 switch links" 2 (List.length (Topo.links t));
  checki "host 0 on switch 0" 0 (Topo.host_switch t (Topo.num_switches t));
  checki "host 1 on switch 2" 2 (Topo.host_switch t (Topo.num_switches t + 1))

let test_linear_single_switch () =
  let t = Topo.linear 1 in
  checki "both hosts on sw0" 0 (Topo.host_switch t 1);
  checki "no switch links" 0 (List.length (Topo.links t))

let test_fat_tree_counts () =
  let k = 4 in
  let t = Topo.fat_tree k in
  (* (k/2)^2 core + k*k/2 agg + k*k/2 edge = 4 + 8 + 8 = 20 *)
  checki "k=4 has 20 switches" 20 (Topo.num_switches t);
  checki "hosts = edges * hosts_per_edge" 16 (Topo.num_hosts t);
  (* links: core-agg k^2*(k/2)/... each pod: (k/2)^2 agg-core + (k/2)^2 agg-edge *)
  checki "k=4 link count" (4 * (4 + 4)) (List.length (Topo.links t))

let test_fat_tree_degrees () =
  let t = Topo.fat_tree 4 in
  (* Core switches connect to one agg per pod: degree k. *)
  List.iter
    (fun c -> checki "core degree = k" 4 (Topo.degree t c))
    [ 0; 1; 2; 3 ]

let test_fat_tree_rejects_odd () =
  checkb "odd k rejected" true
    (try ignore (Topo.fat_tree 3); false with Invalid_argument _ -> true)

let test_isp_structure () =
  let t = Topo.isp () in
  checki "25 cities" 25 (Topo.num_switches t);
  checki "one host per city" 25 (Topo.num_hosts t);
  checkb "connected" true
    (let r = Route.create t in
     let d = Route.distances r 0 in
     Array.for_all (fun x -> x < max_int) (Array.sub d 0 (Topo.num_switches t)))

let test_edge_switches () =
  let t = Topo.fat_tree 4 in
  (* Only edge-layer switches have hosts. *)
  checki "8 edge switches" 8 (List.length (Topo.edge_switches t))

let test_build_rejects_bad_edge () =
  checkb "bad edge rejected" true
    (try
       ignore (Topo.build ~name:"x" ~num_switches:1 ~num_hosts:0 [ (0, 5) ] []);
       false
     with Invalid_argument _ -> true)

(* ---------------- Routing ---------------- *)

let test_shortest_path_linear () =
  let t = Topo.linear 3 in
  let r = Route.create t in
  let h0 = Topo.num_switches t and h1 = Topo.num_switches t + 1 in
  match Route.switch_path r ~src_host:h0 ~dst_host:h1 with
  | Some path -> Alcotest.(check (list int)) "traverses the chain" [ 0; 1; 2 ] path
  | None -> Alcotest.fail "disconnected"

let test_hop_count () =
  let t = Topo.linear 4 in
  let r = Route.create t in
  let h0 = Topo.num_switches t and h1 = Topo.num_switches t + 1 in
  Alcotest.(check (option int)) "4 switch hops" (Some 4)
    (Route.hop_count r ~src_host:h0 ~dst_host:h1)

let test_path_same_node () =
  let t = Topo.linear 2 in
  let r = Route.create t in
  Alcotest.(check (option (list int))) "self path" (Some [ 0 ]) (Route.shortest_path r ~src:0 ~dst:0)

let test_ecmp_spreads_flows () =
  let t = Topo.fat_tree 4 in
  let r = Route.create t in
  let hosts = Topo.hosts t in
  let h0 = List.nth hosts 0 in
  (* a host in another pod, so paths cross the core with ECMP choice *)
  let h_far = List.nth hosts (Topo.num_hosts t - 1) in
  let paths =
    List.init 32 (fun fh -> Route.switch_path ~flow_hash:fh r ~src_host:h0 ~dst_host:h_far)
  in
  let distinct = List.sort_uniq compare paths in
  checkb "ECMP uses multiple paths" true (List.length distinct > 1);
  List.iter
    (fun p ->
      match p with
      | Some p -> checki "all shortest (5 hops inter-pod)" 5 (List.length p)
      | None -> Alcotest.fail "disconnected")
    paths

let test_failure_reroutes () =
  let t = Topo.linear 3 in
  let r = Route.create t in
  Route.fail_link r (0, 1);
  let h0 = Topo.num_switches t and h1 = Topo.num_switches t + 1 in
  Alcotest.(check (option (list int))) "chain cut disconnects" None
    (Route.switch_path r ~src_host:h0 ~dst_host:h1);
  Route.repair_link r (0, 1);
  checkb "repair restores" true
    (Route.switch_path r ~src_host:h0 ~dst_host:h1 <> None)

let test_failure_reroutes_fat_tree () =
  let t = Topo.fat_tree 4 in
  let r = Route.create t in
  let hosts = Topo.hosts t in
  let h0 = List.nth hosts 0 and h1 = List.nth hosts (Topo.num_hosts t - 1) in
  let before = Option.get (Route.switch_path ~flow_hash:3 r ~src_host:h0 ~dst_host:h1) in
  (* Fail the first switch-switch link of the current path. *)
  (match before with
  | a :: b :: _ -> Route.fail_link r (a, b)
  | _ -> Alcotest.fail "path too short");
  let after = Option.get (Route.switch_path ~flow_hash:3 r ~src_host:h0 ~dst_host:h1) in
  checkb "rerouted" true (before <> after);
  (* The failed link must not appear in the new path. *)
  let rec has_link = function
    | a :: (b :: _ as rest) -> Route.is_failed r (a, b) || has_link rest
    | _ -> false
  in
  checkb "avoids failed link" false (has_link after)

let test_all_shortest_paths () =
  let t = Topo.fat_tree 4 in
  let r = Route.create t in
  (* Two edge switches in the same pod have (k/2) 2-hop paths via agg. *)
  let e1 = 4 + 8 and e2 = 4 + 8 + 1 in
  let paths = Route.all_shortest_paths r ~src:e1 ~dst:e2 in
  checki "k/2 equal-cost paths" 2 (List.length paths)

let test_all_paths_bounded () =
  let t = Topo.linear 3 in
  let r = Route.create t in
  let paths = Route.all_paths_bounded r ~src:0 ~dst:2 ~max_hops:5 in
  checki "single simple path on a chain" 1 (List.length paths);
  checki "no path within 1 hop" 0 (List.length (Route.all_paths_bounded r ~src:0 ~dst:2 ~max_hops:1))

let test_distances () =
  let t = Topo.linear 4 in
  let r = Route.create t in
  let d = Route.distances r 0 in
  checki "self" 0 d.(0);
  checki "3 away" 3 d.(3)

let test_failed_links_listing () =
  let t = Topo.linear 3 in
  let r = Route.create t in
  Route.fail_link r (1, 0);
  checkb "normalised and listed" true (Route.failed_links r = [ (0, 1) ]);
  checkb "is_failed in both orders" true (Route.is_failed r (1, 0));
  Route.clear_failures r;
  checkb "cleared" true (Route.failed_links r = [])

let test_waxman_connected () =
  for seed = 1 to 10 do
    let t = Topo.waxman ~switches:20 ~seed in
    let r = Route.create t in
    let d = Route.distances r 0 in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d connected" seed)
      true
      (Array.for_all (fun x -> x < max_int) (Array.sub d 0 (Topo.num_switches t)))
  done

let test_waxman_deterministic () =
  let a = Topo.waxman ~switches:15 ~seed:3 in
  let b = Topo.waxman ~switches:15 ~seed:3 in
  Alcotest.(check (list (pair int int))) "same seed, same graph"
    (Topo.links a) (Topo.links b);
  let c = Topo.waxman ~switches:15 ~seed:4 in
  checkb "different seed differs" true (Topo.links a <> Topo.links c)

let test_waxman_hosts () =
  let t = Topo.waxman ~switches:12 ~seed:5 in
  checki "one host per switch" 12 (Topo.num_hosts t);
  checki "every switch is an edge" 12 (List.length (Topo.edge_switches t))

let qcheck_waxman_placement_coverage =
  QCheck.Test.make ~count:20
    ~name:"placement covers shortest paths on random graphs"
    QCheck.(pair (int_range 1 10000) (int_range 2 4))
    (fun (seed, per) ->
      let topo = Topo.waxman ~switches:12 ~seed in
      let compiled =
        Newton_compiler.Compose.compile (Newton_query.Catalog.q1 ())
      in
      let p =
        Newton_controller.Placement.place ~stages_per_switch:(per * 2) ~topo
          compiled
      in
      let route = Route.create topo in
      let hosts = Array.of_list (Topo.hosts topo) in
      let ok = ref true in
      Array.iteri
        (fun i h1 ->
          if i < 5 then
            Array.iteri
              (fun j h2 ->
                if j < 5 && h1 <> h2 then
                  match Route.switch_path route ~src_host:h1 ~dst_host:h2 with
                  | Some path ->
                      if not (Newton_controller.Placement.covers p path) then
                        ok := false
                  | None -> ())
              hosts)
        hosts;
      !ok)

(* One long-lived route, its next-hop tables built and dropped across
   random failures and repairs, answers like a route created fresh with
   the same failures: every host pair, flow hashes 0-31. *)
type route_op =
  | Fail_link of int
  | Repair_link of int
  | Fail_node of int
  | Repair_node of int
  | Clear

let route_op_to_string = function
  | Fail_link i -> Printf.sprintf "fail_link %d" i
  | Repair_link i -> Printf.sprintf "repair_link (down %d)" i
  | Fail_node i -> Printf.sprintf "fail_node %d" i
  | Repair_node i -> Printf.sprintf "repair_node (down %d)" i
  | Clear -> "clear"

let qcheck_route_cache name topo =
  let links = Array.of_list (Topo.links topo) in
  let nodes = Topo.num_nodes topo in
  let op =
    QCheck.Gen.(
      frequency
        [ (4, map (fun i -> Fail_link i) (int_bound (Array.length links - 1)));
          (3, map (fun i -> Repair_link i) (int_bound (Array.length links - 1)));
          (2, map (fun i -> Fail_node i) (int_bound (nodes - 1)));
          (2, map (fun i -> Repair_node i) (int_bound (nodes - 1)));
          (1, return Clear) ])
  in
  let print ops = String.concat "; " (List.map route_op_to_string ops) in
  let hosts = Topo.hosts topo in
  let same long fresh =
    List.for_all
      (fun src_host ->
        List.for_all
          (fun dst_host ->
            List.for_all
              (fun flow_hash ->
                Route.switch_path ~flow_hash long ~src_host ~dst_host
                = Route.switch_path ~flow_hash fresh ~src_host ~dst_host
                && Route.shortest_path ~flow_hash long ~src:src_host ~dst:dst_host
                   = Route.shortest_path ~flow_hash fresh ~src:src_host ~dst:dst_host)
              (List.init 32 Fun.id))
          hosts)
      hosts
  in
  QCheck.Test.make ~count:20
    ~name:(Printf.sprintf "cached routes follow failures (%s)" name)
    (QCheck.make ~print QCheck.Gen.(list_size (int_range 1 6) op))
    (fun ops ->
      let long = Route.create topo in
      List.for_all
        (fun op ->
          (* a repair picks among what is down, so it takes effect *)
          let nth_down l i = List.nth l (i mod List.length l) in
          (match op with
          | Fail_link i -> Route.fail_link long links.(i)
          | Repair_link i -> (
              match Route.failed_links long with
              | [] -> ()
              | l -> Route.repair_link long (nth_down l i))
          | Fail_node n -> Route.fail_node long n
          | Repair_node n -> (
              match Route.failed_nodes long with
              | [] -> ()
              | l -> Route.repair_node long (nth_down l n))
          | Clear -> Route.clear_failures long);
          let fresh = Route.create topo in
          List.iter (Route.fail_link fresh) (Route.failed_links long);
          List.iter (Route.fail_node fresh) (Route.failed_nodes long);
          same long fresh)
        ops)

(* [switch_path] is built on the path executors' allocation-free
   [switch_path_into]; both must name exactly the switches of
   [shortest_path]'s node path, same-host and disconnected pairs
   included. *)
let test_switch_path_is_shortest_switches () =
  List.iter
    (fun (topo, fail) ->
      let r = Route.create topo in
      fail r;
      let hosts = Topo.hosts topo in
      List.iter
        (fun src_host ->
          List.iter
            (fun dst_host ->
              List.iter
                (fun flow_hash ->
                  Alcotest.(check (option (list int)))
                    "switches of shortest path"
                    (Option.map
                       (List.filter (Topo.is_switch topo))
                       (Route.shortest_path ~flow_hash r ~src:src_host ~dst:dst_host))
                    (Route.switch_path ~flow_hash r ~src_host ~dst_host))
                (List.init 8 Fun.id))
            hosts)
        hosts)
    [ (Topo.fat_tree 4, ignore);
      (Topo.fat_tree 4, fun r -> Route.fail_node r 5; Route.fail_node r 0);
      (Topo.linear 3, fun r -> Route.fail_link r (0, 1)) ]

let suite =
  [
    ("linear structure", `Quick, test_linear_structure);
    ("linear single switch", `Quick, test_linear_single_switch);
    ("fat tree counts", `Quick, test_fat_tree_counts);
    ("fat tree degrees", `Quick, test_fat_tree_degrees);
    ("fat tree rejects odd", `Quick, test_fat_tree_rejects_odd);
    ("isp structure", `Quick, test_isp_structure);
    ("edge switches", `Quick, test_edge_switches);
    ("build rejects bad edge", `Quick, test_build_rejects_bad_edge);
    ("shortest path linear", `Quick, test_shortest_path_linear);
    ("hop count", `Quick, test_hop_count);
    ("path same node", `Quick, test_path_same_node);
    ("ecmp spreads flows", `Quick, test_ecmp_spreads_flows);
    ("failure disconnects chain", `Quick, test_failure_reroutes);
    ("failure reroutes fat tree", `Quick, test_failure_reroutes_fat_tree);
    ("all shortest paths", `Quick, test_all_shortest_paths);
    ("switch path = switches of shortest path", `Quick, test_switch_path_is_shortest_switches);
    ("all paths bounded", `Quick, test_all_paths_bounded);
    ("distances", `Quick, test_distances);
    ("failed links listing", `Quick, test_failed_links_listing);
    ("waxman connected", `Quick, test_waxman_connected);
    ("waxman deterministic", `Quick, test_waxman_deterministic);
    ("waxman hosts", `Quick, test_waxman_hosts);
    QCheck_alcotest.to_alcotest qcheck_waxman_placement_coverage;
    QCheck_alcotest.to_alcotest (qcheck_route_cache "fat_tree 4" (Topo.fat_tree 4));
    QCheck_alcotest.to_alcotest (qcheck_route_cache "bypass" (Topo.bypass ()));
    QCheck_alcotest.to_alcotest
      (qcheck_route_cache "waxman 12" (Topo.waxman ~switches:12 ~seed:7));
  ]
