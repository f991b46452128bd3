(** Flat packet arenas — contiguous packet-major field words plus an
    unboxed timestamp array; the hot-loop representation of a packet
    stream.  Conversion to/from {!Packet.t} happens only at the arena
    boundary; replay then runs allocation-free over the raw buffers. *)

type t

(** An all-zero arena of [len] packets.
    @raise Invalid_argument on a negative length. *)
val create : int -> t

val length : t -> int

(** Words per packet ([= Packet.num_fields]). *)
val stride : t -> int

(** The raw packet-major word buffer (a {!Packet.words} Bigarray, off
    the scanned OCaml heap): packet [i]'s field [f] is at
    [i * stride t + Field.index f].  Hot-loop access only — other
    callers should use {!get}. *)
val field_words : t -> Packet.words

(** The raw timestamp buffer, parallel to the packet index.  Hot-loop
    access only. *)
val timestamps : t -> float array

(** Fill slot [i] from a packet (record→arena).
    @raise Invalid_argument when [i] is out of range. *)
val set_packet : t -> int -> Packet.t -> unit

(** Build an arena from a packet array, preserving order. *)
val of_packets : Packet.t array -> t

(** @raise Invalid_argument when the index is out of range. *)
val get : t -> int -> Field.t -> int

(** @raise Invalid_argument when the index is out of range. *)
val ts : t -> int -> float

(** Rebuild slot [i] as a packet (arena→record).
    @raise Invalid_argument when [i] is out of range. *)
val to_packet : t -> int -> Packet.t

val to_packets : t -> Packet.t array

(** Heap footprint of the arena buffers in bytes. *)
val bytes : t -> int
