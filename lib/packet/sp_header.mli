(** The 12-byte Result-Snapshot (SP) header for cross-switch query
    execution (§5.1): hash and state results for both metadata sets plus
    the global result, snapshotted by [newton_fin] and restored by the
    next Newton switch's parser. *)

type t = {
  hash1 : int;   (** 16 bits *)
  state1 : int;  (** 24 bits, saturated on encode *)
  hash2 : int;   (** 16 bits *)
  state2 : int;  (** 24 bits, saturated on encode *)
  global : int;  (** 16 bits *)
}

val size_bytes : int

(** Bandwidth overhead for a given packet size, e.g. 0.008 at 1500 B.
    @raise Invalid_argument if [pkt_len <= 0]. *)
val overhead_ratio : pkt_len:int -> float

val empty : t

val make : hash1:int -> state1:int -> hash2:int -> state2:int -> global:int -> t

(** Saturate to a 16-bit (hash, global) or 24-bit (state) field:
    negatives become 0, values beyond the width its maximum. *)
val sat16 : int -> int

val sat24 : int -> int

(** Encode into exactly {!size_bytes} bytes (big-endian), saturating
    values to their field widths. *)
val encode : t -> bytes

(** @raise Invalid_argument when the buffer is not {!size_bytes} long. *)
val decode : bytes -> t

val equal : t -> t -> bool
val to_string : t -> string
val pp : Format.formatter -> t -> unit
