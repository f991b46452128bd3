(** FlowRadar export model: an encoded flowset exported wholesale every
    measurement interval — overhead fixed per interval regardless of
    traffic (~1 % of packets at 4096 cells). *)

type t

val create :
  ?array_size:int -> ?cells_per_msg:int -> ?interval:float -> unit -> t

val messages : t -> int
val packets : t -> int
val process : t -> Newton_packet.Packet.t -> unit
val finish : t -> unit
