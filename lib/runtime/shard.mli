(** Packet-to-shard assignment for the parallel replay engine.

    A strategy must preserve {e state locality}: packets contributing to
    the same [distinct]/[reduce] aggregate must land on the same shard,
    or shard-local guards see partial aggregates.  [Flow] gives per-flow
    locality (the default); [Branch_key] gives per-aggregate locality
    for one compiled query; see docs/PARALLELISM.md for the divergence
    each choice admits. *)

open Newton_packet
open Newton_compiler

type strategy =
  | Flow  (** 5-tuple hash: every flow's state is shard-local. *)
  | Branch_key of Compose.t
      (** per-branch aggregation-key extraction from a compiled query:
          all state of every aggregate stays on one shard *)

(** A compiled sharder for a fixed shard count. *)
type t

(** @raise Invalid_argument if [jobs < 1]. *)
val make : jobs:int -> strategy -> t

val jobs : t -> int

(** The owning shard of a packet, in [0, jobs). Deterministic. *)
val assign : t -> Packet.t -> int

(** The locality-preserving strategy for one compiled query
    ([Branch_key]). *)
val for_compiled : Compose.t -> strategy

val strategy_to_string : strategy -> string
