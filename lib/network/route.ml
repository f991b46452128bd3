(** Routing over a {!Topo}, with link and node failures.

    Provides shortest-path forwarding (BFS, deterministic ECMP
    tie-breaking by a flow hash) and failure injection: failed links and
    failed nodes (whole switches, §5.2 switch-failure recovery) are
    excluded and paths recomputed, which models the "forwarding paths are
    mutable and change over time" dynamics of §5.2.  Like a switch's
    forwarding table, the next hops toward each destination are computed
    once and kept until the next failure or repair. *)

type link = int * int

let norm (a, b) = if a <= b then (a, b) else (b, a)

module Link_set = Set.Make (struct
  type t = link

  let compare = compare
end)

module Int_set = Set.Make (Int)

(* Toward one destination: BFS distances, and for each node its sorted
   usable next hops (the neighbours one step closer). *)
type toward = { dist : int array; next : int array array }

type t = {
  topo : Topo.t;
  mutable failed : Link_set.t;
  mutable failed_nodes : Int_set.t;
  (* Per destination, built on first use under the current failures;
     [[||]] until then and after every failure or repair. *)
  mutable toward : toward option array;
}

let create topo =
  { topo; failed = Link_set.empty; failed_nodes = Int_set.empty; toward = [||] }

let topo t = t.topo
let invalidate t = t.toward <- [||]

let fail_link t l =
  t.failed <- Link_set.add (norm l) t.failed;
  invalidate t

let repair_link t l =
  t.failed <- Link_set.remove (norm l) t.failed;
  invalidate t

(* A failed node drops off the forwarding graph entirely: every link
   incident to it is unusable and no path may transit it.  Unlike a
   legacy (Newton-disabled) switch, which still forwards, a failed
   switch forwards nothing. *)
let fail_node t n =
  t.failed_nodes <- Int_set.add n t.failed_nodes;
  invalidate t

let repair_node t n =
  t.failed_nodes <- Int_set.remove n t.failed_nodes;
  invalidate t

let is_node_failed t n = Int_set.mem n t.failed_nodes
let failed_nodes t = Int_set.elements t.failed_nodes

let clear_failures t =
  t.failed <- Link_set.empty;
  t.failed_nodes <- Int_set.empty;
  invalidate t

let failed_links t = Link_set.elements t.failed
let is_failed t l = Link_set.mem (norm l) t.failed

let usable_neighbors t n =
  if is_node_failed t n then []
  else
    List.filter
      (fun m -> not (is_failed t (n, m)) && not (is_node_failed t m))
      (Topo.neighbors t.topo n)

(** BFS distances from [src] over usable links and nodes.
    Unreachable = max_int. *)
let distances t src =
  let n = Topo.num_nodes t.topo in
  let dist = Array.make n max_int in
  if is_node_failed t src then dist
  else begin
    dist.(src) <- 0;
    let q = Queue.create () in
    Queue.add src q;
    while not (Queue.is_empty q) do
      let u = Queue.pop q in
      List.iter
        (fun v ->
          if dist.(v) = max_int then begin
            dist.(v) <- dist.(u) + 1;
            Queue.add v q
          end)
        (usable_neighbors t u)
    done;
    dist
  end

(* The next-hop table toward [dst]: one BFS per destination until the
   next failure or repair. *)
let toward t dst =
  if Array.length t.toward = 0 then
    t.toward <- Array.make (Topo.num_nodes t.topo) None;
  match t.toward.(dst) with
  | Some w -> w
  | None ->
      let dist = distances t dst in
      let next =
        Array.init (Array.length dist) (fun v ->
            List.filter (fun u -> dist.(u) = dist.(v) - 1) (usable_neighbors t v)
            |> List.sort compare |> Array.of_list)
      in
      let w = { dist; next } in
      t.toward.(dst) <- Some w;
      w

(** One shortest path from [src] to [dst] (node list, inclusive), with
    deterministic ECMP tie-breaking by [flow_hash]: hop [i] takes
    next hop [(flow_hash + i) mod n] of the [n] sorted candidates.
    [None] if disconnected. *)
let shortest_path ?(flow_hash = 0) t ~src ~dst =
  if is_node_failed t src || is_node_failed t dst then None
  else if src = dst then Some [ src ]
  else
    let w = toward t dst in
    if w.dist.(src) = max_int then None
    else
      let rec walk cur hop path =
        if cur = dst then Some (List.rev path)
        else
          let nexts = w.next.(cur) in
          let pick = nexts.((flow_hash + hop) mod Array.length nexts) in
          walk pick (hop + 1) (pick :: path)
      in
      walk src 0 [ src ]

(* The walk of [shortest_path] from [cur] at hop [hop], writing the
   switches it visits into [buf] from index [n]; returns the count. *)
let rec fill_switches t w ~flow_hash ~dst buf cur hop n =
  let n =
    if Topo.is_switch t.topo cur then begin
      buf.(n) <- cur;
      n + 1
    end
    else n
  in
  if cur = dst then n
  else
    let nexts = w.next.(cur) in
    fill_switches t w ~flow_hash ~dst buf
      nexts.((flow_hash + hop) mod Array.length nexts)
      (hop + 1) n

(** [switch_path] written into [buf] (at least {!Topo.num_nodes} long):
    the number of switches on the path, or [-1] when disconnected.
    Allocates nothing once the destination's next-hop table is built. *)
let switch_path_into t ~flow_hash ~src_host ~dst_host buf =
  if is_node_failed t src_host || is_node_failed t dst_host then -1
  else if src_host = dst_host then
    if Topo.is_switch t.topo src_host then begin
      buf.(0) <- src_host;
      1
    end
    else 0
  else
    let w = toward t dst_host in
    if w.dist.(src_host) = max_int then -1
    else fill_switches t w ~flow_hash ~dst:dst_host buf src_host 0 0

(** The switch-only portion of a host-to-host path. *)
let switch_path ?(flow_hash = 0) t ~src_host ~dst_host =
  let buf = Array.make (Topo.num_nodes t.topo) 0 in
  let n = switch_path_into t ~flow_hash ~src_host ~dst_host buf in
  if n < 0 then None else Some (Array.to_list (Array.sub buf 0 n))
