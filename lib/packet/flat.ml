(** Flat packet arenas — the zero-copy hot-loop representation.

    A {!Packet.t} is a record holding a boxed float and a pointer to a
    14-word field array: replaying millions of packets through it means
    two dereferences per field read and a cache-hostile heap layout.  An
    arena stores the same data as two contiguous unboxed buffers:

    - [fields] — packet-major words in a Bigarray ({!Packet.words}),
      [stride = Field.count] per packet, so packet [i]'s field [f]
      lives at [i * stride + Field.index f].  A Bigarray rather than an
      [int array]: an [int array] is a scannable heap block, so a 2M×14
      word arena would add ~30M words to every major-GC mark pass —
      Bigarray storage is invisible to the GC.
    - [ts] — an unboxed [float array] of arrival times (flat already:
      float arrays are unscanned [Double_array_tag] blocks).

    Conversion happens once at the arena boundary ({!of_packets} /
    {!to_packet}); the replay loop then touches only word/float loads
    with no per-packet allocation.  The raw buffers are exposed
    ({!field_words}, {!timestamps}) for the compiled executor — callers
    other than the hot loop should stay on the indexed accessors. *)

type t = {
  len : int;
  stride : int;            (* words per packet = Field.count *)
  ts : float array;        (* unboxed arrival times *)
  fields : Packet.words;   (* len * stride, packet-major, off-heap *)
}

let stride_words = Packet.num_fields

let create len =
  if len < 0 then invalid_arg "Flat.create: negative length";
  let fields =
    Bigarray.Array1.create Bigarray.int Bigarray.c_layout
      (max 1 (len * stride_words))
  in
  (* Bigarray memory is uninitialised; match Array.make semantics. *)
  Bigarray.Array1.fill fields 0;
  { len; stride = stride_words; ts = Array.make (max 1 len) 0.0; fields }

let length t = t.len
let stride t = t.stride

(** The raw packet-major word buffer (hot-loop access only). *)
let field_words t = t.fields

(** The raw timestamp buffer (hot-loop access only). *)
let timestamps t = t.ts

let check_index t i op =
  if i < 0 || i >= t.len then
    invalid_arg (Printf.sprintf "Flat.%s: index %d out of range [0,%d)" op i t.len)

(** Fill slot [i] from a packet (record→arena). *)
let set_packet t i pkt =
  check_index t i "set_packet";
  t.ts.(i) <- Packet.ts pkt;
  Packet.blit_fields pkt t.fields (i * t.stride)

(** Build an arena from a packet array, preserving order. *)
let of_packets packets =
  let t = create (Array.length packets) in
  Array.iteri (fun i pkt -> set_packet t i pkt) packets;
  t

let get t i f =
  check_index t i "get";
  Bigarray.Array1.get t.fields ((i * t.stride) + Field.index f)

let ts t i =
  check_index t i "ts";
  t.ts.(i)

(** Rebuild slot [i] as a packet (arena→record). *)
let to_packet t i =
  check_index t i "to_packet";
  Packet.of_fields ~ts:t.ts.(i) t.fields (i * t.stride)

let to_packets t = Array.init t.len (to_packet t)

(** Heap footprint of the arena buffers, in bytes (words are 8 bytes on
    a 64-bit runtime) — for bench reporting. *)
let bytes t = 8 * (t.len + (t.len * t.stride))
