(** The classic 5-tuple flow key (src/dst IP, protocol, src/dst port).

    Used by the [newton_init] classifier, the flow-level trace model, and
    the per-flow baselines (TurboFlow, FlowRadar). *)

type t = {
  src_ip : int;
  dst_ip : int;
  proto : int;
  src_port : int;
  dst_port : int;
}

let make ~src_ip ~dst_ip ~proto ~src_port ~dst_port =
  { src_ip; dst_ip; proto; src_port; dst_port }

let of_packet p =
  {
    src_ip = Packet.get p Field.Src_ip;
    dst_ip = Packet.get p Field.Dst_ip;
    proto = Packet.get p Field.Proto;
    src_port = Packet.get p Field.Src_port;
    dst_port = Packet.get p Field.Dst_port;
  }

(** The flow in the opposite direction (for matching replies). *)
let reverse t =
  {
    src_ip = t.dst_ip;
    dst_ip = t.src_ip;
    proto = t.proto;
    src_port = t.dst_port;
    dst_port = t.src_port;
  }

let equal a b =
  a.src_ip = b.src_ip && a.dst_ip = b.dst_ip && a.proto = b.proto
  && a.src_port = b.src_port && a.dst_port = b.dst_port

let compare = compare

(* Mix the five components (FNV-style); good enough for Hashtbl
   bucketing. *)
let[@inline] mix h v = (h lxor v) * 0x01000193 land max_int

let[@inline] hash5 src_ip dst_ip proto src_port dst_port =
  mix (mix (mix (mix (mix 0x811c9dc5 src_ip) dst_ip) proto) src_port) dst_port

let hash t = hash5 t.src_ip t.dst_ip t.proto t.src_port t.dst_port

(** [hash (of_packet p)] without building the tuple: the per-packet
    ECMP key of the path executors. *)
let hash_packet p =
  hash5 (Packet.get p Field.Src_ip) (Packet.get p Field.Dst_ip)
    (Packet.get p Field.Proto) (Packet.get p Field.Src_port)
    (Packet.get p Field.Dst_port)

let to_string t =
  Printf.sprintf "%s:%d->%s:%d/%d"
    (Packet.ip_to_string t.src_ip) t.src_port
    (Packet.ip_to_string t.dst_ip) t.dst_port t.proto

let pp fmt t = Format.pp_print_string fmt (to_string t)

module Table = Hashtbl.Make (struct
  type nonrec t = t
  let equal = equal
  let hash = hash
end)
