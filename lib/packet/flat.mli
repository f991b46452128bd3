(** Flat packet arenas — the hot-loop representation of a packet
    stream: one [Bytes.t] of {!Packet.size}-byte rows, each laid out
    exactly as a {!Packet.t}'s block, so a packet is a one-row arena
    ({!of_packet}) and the compiled step reads every packet where it
    lies. *)

type t

(** [p] as a one-row arena: the same block, not a copy, at no cost (no
    allocation, no call).  The arena reads [p]'s fields and timestamp
    as they are, so it changes whenever [p] does. *)
external of_packet : Packet.t -> t = "%identity"

(** The arena's bytes: row [i] starts at byte [i * Packet.size], its
    timestamp bits there and field [f]'s cell at [Packet.offset f]
    after.  Hot-loop access only — other callers should use {!get}. *)
external rows : t -> Bytes.t = "%identity"

(** An all-zero arena of [len] packets.
    @raise Invalid_argument on a negative length. *)
val create : int -> t

val length : t -> int

(** Copy a packet's block into row [i].
    @raise Invalid_argument when [i] is out of range. *)
val set_packet : t -> int -> Packet.t -> unit

(** Build an arena from a packet array, preserving order. *)
val of_packets : Packet.t array -> t

(** @raise Invalid_argument when the index is out of range. *)
val get : t -> int -> Field.t -> int

(** @raise Invalid_argument when the index is out of range. *)
val ts : t -> int -> float

(** A copy of row [i] as a packet.
    @raise Invalid_argument when [i] is out of range. *)
val to_packet : t -> int -> Packet.t

val to_packets : t -> Packet.t array

(** Footprint of the arena's rows in bytes. *)
val bytes : t -> int
