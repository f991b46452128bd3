(** FlowRadar export model (Li et al., NSDI'16).

    FlowRadar maintains an {e encoded flowset} — an invertible-Bloom-
    lookup-table-like array of (flow-xor, flow-count, packet-count)
    cells — and exports the whole array to collectors every measurement
    interval for network-wide decoding.  Export cost is therefore fixed
    per interval ([array_size] cells, batched [cells_per_msg] per
    message) regardless of traffic, ≈1 % of packets at the paper's 4096
    cells, but decoding needs a server fleet as networks scale (§6.1). *)

open Newton_packet

type t = {
  array_size : int;
  cells_per_msg : int;
  interval : float;
  cells : int array; (* packet counts per cell; flow-set encoding elided *)
  mutable window : int;
  mutable messages : int;
  mutable packets : int;
}

(* Cells each flow's packets update (the encoded flowset's hash count). *)
let num_hashes = 3

let create ?(array_size = 4096) ?(cells_per_msg = 64) ?(interval = 0.1) () =
  {
    array_size;
    cells_per_msg;
    interval;
    cells = Array.make array_size 0;
    window = 0;
    messages = 0;
    packets = 0;
  }

let messages t = t.messages
let packets t = t.packets

let export t =
  t.messages <- t.messages + ((t.array_size + t.cells_per_msg - 1) / t.cells_per_msg);
  Array.fill t.cells 0 t.array_size 0

let process t pkt =
  t.packets <- t.packets + 1;
  let w = int_of_float (Packet.ts pkt /. t.interval) in
  if w <> t.window then begin
    export t;
    t.window <- w
  end;
  let key = Fivetuple.of_packet pkt in
  let h = Fivetuple.hash key in
  for i = 0 to num_hashes - 1 do
    let idx = Newton_sketch.Hash.hash_int ~seed:i h mod t.array_size in
    t.cells.(idx) <- t.cells.(idx) + 1
  done

let finish t = export t
