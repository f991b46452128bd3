(** Network topologies.  Nodes are integers: switches come first
    ([0 .. num_switches-1]), then hosts.  Three families match the
    paper's evaluation: linear chains (the Fig. 8 testbed), k-ary
    fat-trees (Fig. 17) and a North-America ISP backbone. *)

type node = int

type t

val name : t -> string
val num_switches : t -> int
val num_hosts : t -> int
val num_nodes : t -> int
val is_switch : t -> node -> bool
val is_host : t -> node -> bool
val switches : t -> node list
val hosts : t -> node list
val neighbors : t -> node -> node list

(** Switches directly connected to at least one host. *)
val edge_switches : t -> node list

(** The switch a (single-homed) host hangs off.
    @raise Invalid_argument for an unattached host. *)
val host_switch : t -> node -> node

(** The host a trace IP lives on: a stable hash (seed 4242) of the IP
    over the hosts, so every replay of one trace sees the same
    placement. *)
val host_of_ip : t -> int -> node

(** All switch-switch links, each once as (a, b) with a < b. *)
val links : t -> (node * node) list

val degree : t -> node -> int

(** Build from explicit switch-switch edges and (host, switch)
    attachments.
    @raise Invalid_argument on out-of-range endpoints. *)
val build :
  name:string -> num_switches:int -> num_hosts:int ->
  (node * node) list -> (int * node) list -> t

(** Chain of [n] switches with one host at each end.
    @raise Invalid_argument if [n < 1]. *)
val linear : int -> t

(** Two end switches (ids 0 and 1, one host each) joined by two
    disjoint chains: a [short]-switch primary (ids [2..1+short]) and a
    [long]-switch backup.  Failing any primary switch shifts all
    traffic onto the backup — a deterministic single-path reroute,
    the reference topology for switch-failure recovery tests.
    @raise Invalid_argument unless [1 <= short < long]. *)
val bypass : ?short:int -> ?long:int -> unit -> t

(** k-ary fat-tree: (k/2)² core, k·k/2 aggregation and edge switches,
    two hosts per edge switch.
    @raise Invalid_argument for odd or non-positive k. *)
val fat_tree : int -> t

val fat_tree_num_core : int -> int

(** 25-city North-America backbone modelled on the AT&T OC-768 map. *)
val isp : unit -> t

(** Waxman random graph (connected; one host per switch; link
    probability 0.4·exp(-d / (0.25·√2)) at distance d).
    @raise Invalid_argument if [switches < 1]. *)
val waxman : switches:int -> seed:int -> t

val to_string : t -> string
