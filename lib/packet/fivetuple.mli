(** The classic 5-tuple flow key. *)

type t = {
  src_ip : int;
  dst_ip : int;
  proto : int;
  src_port : int;
  dst_port : int;
}

val make :
  src_ip:int -> dst_ip:int -> proto:int -> src_port:int -> dst_port:int -> t

val of_packet : Packet.t -> t

(** The flow in the opposite direction. *)
val reverse : t -> t

val equal : t -> t -> bool
val compare : t -> t -> int

(** Mixing hash, suitable for flow caches and ECMP. *)
val hash : t -> int

(** [hash_packet p = hash (of_packet p)], without building the tuple. *)
val hash_packet : Packet.t -> int

val to_string : t -> string
val pp : Format.formatter -> t -> unit

module Table : Hashtbl.S with type key = t
