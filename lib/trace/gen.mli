(** Trace generation: time-sorted packet streams from a profile, a seed
    and an attack list.  The same (profile, seed, attacks) triple always
    yields the identical trace. *)

open Newton_packet

type t

val packets : t -> Packet.t array
val length : t -> int
val profile : t -> Profile.t
val attacks : t -> Attack.t list

(** Generate a trace deterministically. *)
val generate : ?attacks:Attack.t list -> seed:int -> Profile.t -> t

(** Wrap a time-sorted packet array (e.g. loaded from disk). *)
val of_packets : name:string -> Packet.t array -> t

val iter : (Packet.t -> unit) -> t -> unit
val fold : ('a -> Packet.t -> 'a) -> 'a -> t -> 'a

(** Total bytes on the wire. *)
val total_bytes : t -> int
