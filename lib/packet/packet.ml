(** Packet representation.

    A packet is one [Bytes.t] block of {!size} = 80 bytes, laid out like
    the switch's PHV containers: bytes 0–7 hold the arrival timestamp's
    IEEE 754 bits, and field [i] (in {!Field.index} order) is an
    unsigned 32-bit cell at byte [8 + 4 i], both in native byte order.
    Every field we model is at most 32 bits wide.  With its header the
    block is 12 words (96 B), one allocation per packet.  Cells are read
    and written with the [%caml_bytes_get32u]/[set32u] primitives, which
    compile inline. *)

type t = Bytes.t

external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let num_fields = Field.count
let size = 8 + (4 * num_fields)

let[@inline] cell t i = Int32.to_int (get32 t (8 + (4 * i))) land 0xFFFF_FFFF
let[@inline] set_cell t i v = set32 t (8 + (4 * i)) (Int32.of_int v)
let[@inline] ts t = Int64.float_of_bits (get64 t 0)
let[@inline] set_ts t ts = set64 t 0 (Int64.bits_of_float ts)

let create ?(ts = 0.0) () =
  let t = Bytes.make size '\000' in
  set_ts t ts;
  t

let of_bytes b =
  if Bytes.length b <> size then invalid_arg "Packet.of_bytes: length";
  b

let get t f = cell t (Field.index f)
let set t f v = set_cell t (Field.index f) (v land Field.full_mask f)

let with_ts t ts =
  let t = Bytes.copy t in
  set_ts t ts;
  t

let copy = Bytes.copy

let compare_ts a b = Float.compare (ts a) (ts b)
let gap prev cur = ts cur -. ts prev

(* Flat-arena boundary: one row moves between a packet and an arena's
   parallel timestamp and word buffers (see {!Flat}).  The word buffer
   is a Bigarray so arena contents live outside the scanned OCaml heap
   — a multi-million-packet arena adds nothing to major-GC mark work.
   The timestamp crosses as raw bits into the unboxed float array, so a
   row costs no allocation. *)
type words = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let to_row t (tss : float array) (dst : words) i =
  Array.unsafe_set tss i (ts t);
  let off = i * num_fields in
  for j = 0 to num_fields - 1 do
    Bigarray.Array1.unsafe_set dst (off + j) (cell t j)
  done

let of_row (tss : float array) (src : words) i =
  let t = Bytes.create size in
  set_ts t (Array.unsafe_get tss i);
  let off = i * num_fields in
  for j = 0 to num_fields - 1 do
    set_cell t j (Bigarray.Array1.unsafe_get src (off + j))
  done;
  t

(** Construct a packet from common header values. Unset fields default
    to zero (as a parser would leave invalid headers). *)
let make ?(ts = 0.0) ?(src_ip = 0) ?(dst_ip = 0) ?(proto = 0) ?(src_port = 0)
    ?(dst_port = 0) ?(tcp_flags = 0) ?(tcp_seq = 0) ?(tcp_ack = 0)
    ?(pkt_len = 64) ?(payload_len = 0) ?(ttl = 64) ?(dns_qr = 0)
    ?(dns_ancount = 0) ?(ingress_port = 0) ?(ip_ver = 4) ?(icmp_type = 0)
    ?(icmp_code = 0) ?(tun_id = 0) () =
  let p = create ~ts () in
  set p Src_ip src_ip;
  set p Dst_ip dst_ip;
  set p Proto proto;
  set p Src_port src_port;
  set p Dst_port dst_port;
  set p Tcp_flags tcp_flags;
  set p Tcp_seq tcp_seq;
  set p Tcp_ack tcp_ack;
  set p Pkt_len pkt_len;
  set p Payload_len payload_len;
  set p Ttl ttl;
  set p Dns_qr dns_qr;
  set p Dns_ancount dns_ancount;
  set p Ingress_port ingress_port;
  set p Ip_ver ip_ver;
  set p Icmp_type icmp_type;
  set p Icmp_code icmp_code;
  set p Tun_id tun_id;
  p

let is_tcp t = get t Proto = Field.Protocol.tcp
let is_udp t = get t Proto = Field.Protocol.udp

let has_flags t mask = get t Tcp_flags land mask = mask
let is_syn t = is_tcp t && get t Tcp_flags = Field.Tcp_flag.syn
let is_syn_ack t = is_tcp t && has_flags t Field.Tcp_flag.syn_ack

(** Pretty-print an IPv4 address stored as an int. *)
let ip_to_string ip =
  Printf.sprintf "%d.%d.%d.%d"
    ((ip lsr 24) land 0xff) ((ip lsr 16) land 0xff)
    ((ip lsr 8) land 0xff) (ip land 0xff)

let ip_of_string s =
  match String.split_on_char '.' s |> List.map int_of_string with
  | [ a; b; c; d ]
    when List.for_all (fun x -> x >= 0 && x <= 255) [ a; b; c; d ] ->
      (a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d
  | _ -> invalid_arg ("Packet.ip_of_string: " ^ s)
  | exception _ -> invalid_arg ("Packet.ip_of_string: " ^ s)

let to_string t =
  Printf.sprintf "[%.6f] %s:%d -> %s:%d proto=%d flags=0x%02x len=%d"
    (ts t)
    (ip_to_string (get t Src_ip)) (get t Src_port)
    (ip_to_string (get t Dst_ip)) (get t Dst_port)
    (get t Proto) (get t Tcp_flags) (get t Pkt_len)

let pp fmt t = Format.pp_print_string fmt (to_string t)
