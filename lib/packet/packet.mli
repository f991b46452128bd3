(** Packet representation: a timestamp plus a dense vector of global
    header-field values (see {!Field}); allocation-free access in the
    pipeline's hot loop. *)

type t

val num_fields : int

(** An all-zero packet. *)
val create : ?ts:float -> unit -> t

(** [of_array ~ts fields] is a packet over [fields] itself, not a
    copy: [fields] holds the {!num_fields} values in {!Field.index}
    order, each within its field's width, and the caller gives the
    array up.  The decoder builds its packets this way.
    @raise Invalid_argument unless [fields] has {!num_fields} slots. *)
val of_array : ts:float -> int array -> t

val get : t -> Field.t -> int

(** Set a field; the value is truncated to the field's width. *)
val set : t -> Field.t -> int -> unit

(** Arrival time, seconds since trace start. *)
val ts : t -> float

(** Same fields, different timestamp. *)
val with_ts : t -> float -> t

val copy : t -> t

(** A packet-major field-word buffer (the {!Flat} arena backing store).
    A Bigarray, not an [int array]: arena contents live outside the
    scanned OCaml heap, so multi-million-packet arenas add nothing to
    major-GC mark work. *)
type words = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

(** [blit_fields p dst off] copies the packet's [num_fields] field words
    into [dst] starting at [off] — the record→arena half of the {!Flat}
    conversion boundary.  No bounds checks; the caller guarantees
    [off + num_fields <= dim dst]. *)
val blit_fields : t -> words -> int -> unit

(** [of_fields ~ts src off] rebuilds a packet from [num_fields] words of
    [src] at [off] — the arena→record half.  No bounds checks. *)
val of_fields : ts:float -> words -> int -> t

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
