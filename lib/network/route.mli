(** Routing over a {!Topo} with link and node failures: BFS shortest
    paths with deterministic per-flow ECMP, rerouting around failed
    links and failed switches. *)

type link = int * int

type t

val create : Topo.t -> t
val topo : t -> Topo.t

(** Links are normalised, so (a,b) and (b,a) refer to the same link. *)
val fail_link : t -> link -> unit

val repair_link : t -> link -> unit

(** Fail a whole node: every incident link becomes unusable and no path
    may transit it (a failed switch forwards nothing — unlike a legacy
    switch, which forwards but runs no Newton rules). *)
val fail_node : t -> int -> unit

val repair_node : t -> int -> unit
val is_node_failed : t -> int -> bool
val failed_nodes : t -> int list

(** Repair every failed link and node. *)
val clear_failures : t -> unit

val failed_links : t -> link list
val is_failed : t -> link -> bool

(** BFS distances from a node over usable links; unreachable = [max_int]. *)
val distances : t -> int -> int array

(** One shortest path (inclusive node list) with deterministic ECMP
    tie-breaking by [flow_hash]: hop [i] takes candidate
    [(flow_hash + i) mod n] of the [n] sorted next hops; [None] when
    disconnected. *)
val shortest_path : ?flow_hash:int -> t -> src:int -> dst:int -> int list option

(** The switch-only portion of a host-to-host shortest path.  Walks a
    per-destination next-hop table (node → sorted usable next hops),
    built by one BFS on first use and rebuilt after any failure or
    repair, so forwarding a packet costs one lookup per hop. *)
val switch_path :
  ?flow_hash:int -> t -> src_host:int -> dst_host:int -> int list option

(** {!switch_path} written into [buf], which must hold
    {!Topo.num_nodes} entries: returns the number of switches on the
    path ([0] when both endpoints are the same host), or [-1] when
    disconnected.  Allocates nothing once the destination's next-hop
    table is built — the per-packet form of the path executors. *)
val switch_path_into :
  t -> flow_hash:int -> src_host:int -> dst_host:int -> int array -> int

(** All equal-cost shortest paths between two nodes. *)
val all_shortest_paths : t -> src:int -> dst:int -> int list list

(** All simple paths of at most [max_hops] links. *)
val all_paths_bounded : t -> src:int -> dst:int -> max_hops:int -> int list list

(** Number of switches on the host-to-host path. *)
val hop_count : ?flow_hash:int -> t -> src_host:int -> dst_host:int -> int option
