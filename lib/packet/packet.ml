(** Packet representation.

    A packet is a timestamp plus a dense vector of global header-field
    values (see {!Field}).  Values are stored as plain [int]s — every field
    we model is at most 32 bits, which fits OCaml's 63-bit native int with
    room to spare.  The dense-array layout keeps per-packet processing
    allocation-free in the pipeline's hot loop. *)

type t = {
  ts : float;          (** arrival time in seconds since trace start *)
  fields : int array;  (** indexed by [Field.index] *)
}

let num_fields = Field.count

let create ?(ts = 0.0) () = { ts; fields = Array.make num_fields 0 }

let of_array ~ts fields =
  if Array.length fields <> num_fields then invalid_arg "Packet.of_array: length";
  { ts; fields }

let get t f = t.fields.(Field.index f)
let set t f v = t.fields.(Field.index f) <- v land Field.full_mask f

let ts t = t.ts
let with_ts t ts = { t with ts }

let copy t = { ts = t.ts; fields = Array.copy t.fields }

(* Flat-arena boundary: bulk moves between the record representation
   and a packet-major word buffer (see {!Flat}).  The buffer is a
   Bigarray so arena contents live outside the scanned OCaml heap —
   a multi-million-packet arena adds nothing to major-GC mark work. *)
type words = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let blit_fields t (dst : words) off =
  for j = 0 to num_fields - 1 do
    Bigarray.Array1.unsafe_set dst (off + j) (Array.unsafe_get t.fields j)
  done

let of_fields ~ts (src : words) off =
  let fields = Array.make num_fields 0 in
  for j = 0 to num_fields - 1 do
    Array.unsafe_set fields j (Bigarray.Array1.unsafe_get src (off + j))
  done;
  { ts; fields }

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
    t.ts
    (ip_to_string (get t Src_ip)) (get t Src_port)
    (ip_to_string (get t Dst_ip)) (get t Dst_port)
    (get t Proto) (get t Tcp_flags) (get t Pkt_len)

let pp fmt t = Format.pp_print_string fmt (to_string t)
