(** *Flow export model: grouped packet vectors (GPVs) of per-packet
    features shipped to a CPU analyzer — fully dynamic queries at the
    cost of per-packet export (Fig. 12/13).  Only the message count is
    modelled: a cache line holds a flow key and its buffered packet
    count, not the features themselves. *)

open Newton_packet

type t

val create : ?cache_size:int -> ?gpv_len:int -> unit -> t

(** GPV messages exported so far. *)
val messages : t -> int

val packets : t -> int

val process : t -> Packet.t -> unit

(** Ship all resident partial GPVs. *)
val finish : t -> unit
