(** Network topologies.

    Nodes are integers: switches are [0 .. num_switches-1], hosts are
    [num_switches .. num_switches+num_hosts-1].  The evaluation uses
    three families, matching §6: a linear chain (the 3-switch testbed of
    Fig. 8), k-ary fat-trees (Fig. 17), and a North-America ISP backbone
    modelled after the AT&T OC-768 map the paper cites. *)

type node = int

type t = {
  name : string;
  num_switches : int;
  num_hosts : int;
  adj : node list array; (* adjacency over all nodes, switches then hosts *)
}

let name t = t.name
let num_switches t = t.num_switches
let num_hosts t = t.num_hosts
let num_nodes t = t.num_switches + t.num_hosts
let is_switch t n = n >= 0 && n < t.num_switches
let is_host t n = n >= t.num_switches && n < num_nodes t
let switches t = List.init t.num_switches Fun.id
let hosts t = List.init t.num_hosts (fun i -> t.num_switches + i)
let neighbors t n = t.adj.(n)

(** Switches directly connected to at least one host. *)
let edge_switches t =
  List.filter (fun s -> List.exists (fun n -> is_host t n) t.adj.(s)) (switches t)

(** The switch a host hangs off (hosts are single-homed here). *)
let host_switch t h =
  match List.find_opt (fun n -> is_switch t n) t.adj.(h) with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Topo.host_switch: host %d unattached" h)

(** Map a trace IP onto a host with a stable hash (seed 4242). *)
let host_of_ip t ip =
  t.num_switches + (Newton_sketch.Hash.hash_int ~seed:4242 ip mod t.num_hosts)

(** All switch-switch links, each reported once as (a, b) with a < b. *)
let links t =
  List.concat_map
    (fun a ->
      List.filter_map
        (fun b -> if is_switch t b && a < b then Some (a, b) else None)
        t.adj.(a))
    (switches t)

let degree t n = List.length t.adj.(n)

let build ~name ~num_switches ~num_hosts edges host_links =
  let n = num_switches + num_hosts in
  let adj = Array.make n [] in
  let add a b =
    if a < 0 || a >= n || b < 0 || b >= n then
      invalid_arg (Printf.sprintf "Topo.build(%s): bad edge %d-%d" name a b);
    if not (List.mem b adj.(a)) then adj.(a) <- b :: adj.(a);
    if not (List.mem a adj.(b)) then adj.(b) <- a :: adj.(b)
  in
  List.iter (fun (a, b) -> add a b) edges;
  List.iter (fun (h, s) -> add (num_switches + h) s) host_links;
  { name; num_switches; num_hosts; adj }

(** Linear chain of [n] switches with one host at each end — the paper's
    3-switch testbed topology (Fig. 8) generalised. *)
let linear n =
  if n < 1 then invalid_arg "Topo.linear: need at least one switch";
  build
    ~name:(Printf.sprintf "linear-%d" n)
    ~num_switches:n ~num_hosts:2
    (List.init (n - 1) (fun i -> (i, i + 1)))
    [ (0, 0); (1, n - 1) ]

(** Bypass topology: two end switches joined by two disjoint switch
    chains — a [short]-switch primary path and a [long]-switch backup.
    One host per end.  Shortest-path routing uses the primary chain
    exclusively; failing any primary switch deterministically shifts
    {e all} traffic onto the backup, which makes it the reference
    topology for switch-failure recovery tests (a single-path reroute
    with no ECMP spreading). *)
let bypass ?(short = 1) ?(long = 2) () =
  if short < 1 || long <= short then
    invalid_arg "Topo.bypass: need 1 <= short < long";
  (* Switch ids: 0 and 1 are the ends; 2..1+short the primary chain;
     2+short..1+short+long the backup chain. *)
  let num_switches = 2 + short + long in
  let chain first len =
    (* 0 - first - first+1 - ... - first+len-1 - 1 *)
    ((0, first) :: List.init (len - 1) (fun i -> (first + i, first + i + 1)))
    @ [ (first + len - 1, 1) ]
  in
  build
    ~name:(Printf.sprintf "bypass-%d-%d" short long)
    ~num_switches ~num_hosts:2
    (chain 2 short @ chain (2 + short) long)
    [ (0, 0); (1, 1) ]

(** k-ary fat-tree: k pods, (k/2)^2 core switches, k/2 aggregation and
    k/2 edge switches per pod, k/2 hosts per edge switch (scaled-down
    host count keeps experiments fast while preserving path structure). *)
let fat_tree k =
  if k < 2 || k mod 2 <> 0 then invalid_arg "Topo.fat_tree: k must be even and >= 2";
  let half = k / 2 in
  let num_core = half * half in
  let num_agg = k * half in
  let num_edge = k * half in
  let num_switches = num_core + num_agg + num_edge in
  let core i = i in
  let agg pod i = num_core + (pod * half) + i in
  let edge pod i = num_core + num_agg + (pod * half) + i in
  let edges = ref [] in
  for pod = 0 to k - 1 do
    for a = 0 to half - 1 do
      (* Aggregation a of this pod connects to core group a. *)
      for c = 0 to half - 1 do
        edges := (agg pod a, core ((a * half) + c)) :: !edges
      done;
      (* Full bipartite agg-edge inside the pod. *)
      for e = 0 to half - 1 do
        edges := (agg pod a, edge pod e) :: !edges
      done
    done
  done;
  let hosts_per_edge = 2 in
  let num_hosts = num_edge * hosts_per_edge in
  let host_links =
    List.concat
      (List.init num_edge (fun e ->
           List.init hosts_per_edge (fun h ->
               ((e * hosts_per_edge) + h, num_core + num_agg + e))))
  in
  build
    ~name:(Printf.sprintf "fat-tree-k%d" k)
    ~num_switches ~num_hosts !edges host_links

(** Pod of an edge switch in a fat-tree (for locality-aware workloads). *)
let fat_tree_num_core k = k / 2 * (k / 2)

(** North-America ISP backbone modelled on the AT&T OC-768 map [67]:
    25 cities, mesh-like long-haul links, one host (stub network) per
    city. Index 0 is San Francisco and 1 is Los Angeles — the paper's
    "traffic emitted from California" enters there. *)
let isp_cities =
  [| "SanFrancisco"; "LosAngeles"; "Seattle"; "SaltLakeCity"; "Phoenix";
     "Denver"; "Albuquerque"; "Dallas"; "Houston"; "SanAntonio";
     "KansasCity"; "StLouis"; "Chicago"; "Minneapolis"; "Detroit";
     "Cleveland"; "Nashville"; "Atlanta"; "NewOrleans"; "Miami";
     "Raleigh"; "WashingtonDC"; "Philadelphia"; "NewYork"; "Boston" |]

let isp () =
  let edges =
    [ (0, 1); (0, 2); (0, 3); (1, 4); (1, 3); (2, 3); (2, 13); (3, 5);
      (4, 6); (4, 1); (5, 6); (5, 10); (5, 12); (6, 7); (7, 8); (7, 10);
      (7, 16); (8, 9); (8, 18); (9, 7); (10, 11); (10, 13); (11, 12);
      (11, 16); (12, 13); (12, 14); (12, 15); (14, 15); (15, 21); (16, 17);
      (17, 18); (17, 19); (17, 20); (18, 19); (20, 21); (21, 22); (22, 23);
      (23, 24); (12, 23); (5, 7); (0, 5); (17, 21); (19, 20) ]
  in
  let n = Array.length isp_cities in
  build ~name:"na-isp" ~num_switches:n ~num_hosts:n edges
    (List.init n (fun i -> (i, i)))

(** Waxman random graph: switches placed uniformly in the unit square,
    link probability decaying with distance; extra edges ensure
    connectivity.  One host per switch.  Used to check that placement
    and routing hold beyond the structured topologies. *)
let waxman ~switches ~seed =
  let alpha = 0.4 and beta = 0.25 in
  if switches < 1 then invalid_arg "Topo.waxman: need at least one switch";
  let rng = Newton_util.Prng.of_int seed in
  let xs = Array.init switches (fun _ -> Newton_util.Prng.float rng) in
  let ys = Array.init switches (fun _ -> Newton_util.Prng.float rng) in
  let dist i j = Float.hypot (xs.(i) -. xs.(j)) (ys.(i) -. ys.(j)) in
  let edges = ref [] in
  for i = 0 to switches - 1 do
    for j = i + 1 to switches - 1 do
      let p = alpha *. exp (-.dist i j /. (beta *. Float.sqrt 2.0)) in
      if Newton_util.Prng.bernoulli rng p then edges := (i, j) :: !edges
    done
  done;
  (* Stitch components together: union-find over the sampled edges, then
     connect representatives in index order. *)
  let parent = Array.init switches Fun.id in
  let rec find i = if parent.(i) = i then i else (parent.(i) <- find parent.(i); parent.(i)) in
  let union i j =
    let ri = find i and rj = find j in
    if ri <> rj then parent.(ri) <- rj
  in
  List.iter (fun (i, j) -> union i j) !edges;
  for i = 1 to switches - 1 do
    if find i <> find 0 then begin
      edges := (i - 1, i) :: !edges;
      union (i - 1) i
    end
  done;
  build
    ~name:(Printf.sprintf "waxman-%d-s%d" switches seed)
    ~num_switches:switches ~num_hosts:switches !edges
    (List.init switches (fun i -> (i, i)))

let to_string t =
  Printf.sprintf "%s: %d switches, %d hosts, %d links" t.name t.num_switches
    t.num_hosts (List.length (links t))
