(** Flat packet arenas — the zero-copy hot-loop representation.

    A {!Packet.t} is one 80-byte block (timestamp bits, then 32-bit
    field cells).  An arena is a run of such blocks laid end to end in
    one [Bytes.t]: row [i] occupies bytes [i * Packet.size] onward, in
    the packet's own layout, so a packet's block {e is} a one-row arena
    and nothing converts between the two.  A [Bytes] block holds no
    pointers, so the GC never scans it: a multi-million-packet arena
    adds nothing to major-GC mark work.  Filling an arena from scattered
    packets copies one 80-byte row per packet; the replay loop then
    reads cells and timestamps in place with no per-packet allocation. *)

type t = Bytes.t

(* A packet's block is a [Bytes.t] of [Packet.size] bytes (packet.ml). *)
external of_packet : Packet.t -> t = "%identity"
external rows : t -> Bytes.t = "%identity"
external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

let create len =
  if len < 0 then invalid_arg "Flat.create: negative length";
  Bytes.make (len * Packet.size) '\000'

let length t = Bytes.length t / Packet.size

let check_index t i op =
  if i < 0 || i >= length t then
    invalid_arg (Printf.sprintf "Flat.%s: index %d out of range [0,%d)" op i (length t))

let set_packet t i pkt =
  check_index t i "set_packet";
  Bytes.blit (of_packet pkt) 0 t (i * Packet.size) Packet.size

let of_packets packets =
  let t = create (Array.length packets) in
  Array.iteri (fun i pkt -> set_packet t i pkt) packets;
  t

let get t i f =
  check_index t i "get";
  Int32.to_int (get32 t ((i * Packet.size) + Packet.offset f)) land 0xFFFF_FFFF

let ts t i =
  check_index t i "ts";
  Int64.float_of_bits (get64 t (i * Packet.size))

let to_packet t i =
  check_index t i "to_packet";
  Packet.of_bytes (Bytes.sub t (i * Packet.size) Packet.size)

let to_packets t = Array.init (length t) (to_packet t)

let bytes = Bytes.length
