(** Packet representation: a timestamp plus a dense vector of global
    header-field values (see {!Field}), held in one 80-byte block — the
    timestamp's IEEE bits, then one unsigned 32-bit cell per field, as
    the switch holds the header-field set in fixed-width PHV
    containers.  Access allocates nothing in the pipeline's hot loop.

    Structural equality ([=]) compares the block's bytes, so two packets
    are equal when their fields are and their timestamps have the same
    bits: [-0.0] and [0.0] differ, a NaN timestamp equals itself. *)

type t

val num_fields : int

(** An all-zero packet. *)
val create : ?ts:float -> unit -> t

(** Bytes in a packet's block: [8 + 4 * num_fields]. *)
val size : int

(** [of_bytes b] is the packet [b] holds, not a copy; the caller gives
    [b] up.  Bytes 0–7 are the timestamp's IEEE 754 bits and field [i]
    (in {!Field.index} order) is the unsigned 32-bit cell at byte
    [8 + 4 i], both in native byte order (the layout
    [Bytes.set_int64_ne]/[set_int32_ne] write); each value must be
    within its field's width.  The decoder builds its packets this way.
    @raise Invalid_argument unless [b] has {!size} bytes. *)
val of_bytes : Bytes.t -> t

val get : t -> Field.t -> int

(** Set a field; the value is truncated to the field's width. *)
val set : t -> Field.t -> int -> unit

(** Arrival time, seconds since trace start. *)
val ts : t -> float

(** Same fields, different timestamp. *)
val with_ts : t -> float -> t

val copy : t -> t

(** [Float.compare (ts a) (ts b)], without boxing either timestamp. *)
val compare_ts : t -> t -> int

(** [gap prev cur] is [ts cur -. ts prev]: one boxed float, not three. *)
val gap : t -> t -> float

(** A packet-major field-word buffer (the {!Flat} arena backing store).
    A Bigarray, not an [int array]: arena contents live outside the
    scanned OCaml heap, so multi-million-packet arenas add nothing to
    major-GC mark work. *)
type words = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

(** [to_row p tss words i] writes [p] as arena row [i]: its timestamp
    to [tss.(i)] and its [num_fields] field words to [words] from
    [i * num_fields] — the packet→arena half of the {!Flat} conversion
    boundary, with no allocation.  No bounds checks; the caller
    guarantees [i < Array.length tss] and
    [(i + 1) * num_fields <= dim words]. *)
val to_row : t -> float array -> words -> int -> unit

(** [of_row tss words i] rebuilds arena row [i] as a packet — the
    arena→packet half.  No bounds checks. *)
val of_row : float array -> words -> int -> t

(** Construct a packet from common header values; unset fields default
    to zero (length 64, TTL 64, IP version 4). *)
val make :
  ?ts:float -> ?src_ip:int -> ?dst_ip:int -> ?proto:int -> ?src_port:int ->
  ?dst_port:int -> ?tcp_flags:int -> ?tcp_seq:int -> ?tcp_ack:int ->
  ?pkt_len:int -> ?payload_len:int -> ?ttl:int -> ?dns_qr:int ->
  ?dns_ancount:int -> ?ingress_port:int -> ?ip_ver:int -> ?icmp_type:int ->
  ?icmp_code:int -> ?tun_id:int -> unit -> t

val is_tcp : t -> bool
val is_udp : t -> bool

(** TCP with flags exactly SYN. *)
val is_syn : t -> bool

val is_syn_ack : t -> bool

(** Dotted-quad rendering of an int-encoded IPv4. *)
val ip_to_string : int -> string

(** @raise Invalid_argument on a malformed dotted quad. *)
val ip_of_string : string -> int

val to_string : t -> string
val pp : Format.formatter -> t -> unit
