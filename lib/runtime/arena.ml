(** Pre-sharded replay arenas.

    Partitions a packet stream into one contiguous {!Flat} arena per
    shard {e before} replay starts: a counting pass sizes every arena
    exactly, a fill pass copies each packet's 80-byte block into the
    next row of its shard's arena, in stream order.  The shard function runs once per
    packet here, at build time — the replay hot loop never dispatches
    again.  Within a shard, arena order is stream order (the
    order-preservation guarantee the differential tests rely on), and
    the arenas partition the input exactly: every packet lands in
    exactly one shard, no duplicates, no drops. *)

open Newton_packet

(** Build one arena per shard ([Shard.jobs sharder] of them). *)
let build sharder (packets : Packet.t array) =
  let jobs = Shard.jobs sharder in
  let n = Array.length packets in
  if jobs = 1 then [| Flat.of_packets packets |]
  else begin
    let owner = Array.make n 0 in
    let counts = Array.make jobs 0 in
    for i = 0 to n - 1 do
      let s = Shard.assign sharder packets.(i) in
      owner.(i) <- s;
      counts.(s) <- counts.(s) + 1
    done;
    let arenas = Array.init jobs (fun s -> Flat.create counts.(s)) in
    let fill = Array.make jobs 0 in
    for i = 0 to n - 1 do
      let s = owner.(i) in
      Flat.set_packet arenas.(s) fill.(s) packets.(i);
      fill.(s) <- fill.(s) + 1
    done;
    arenas
  end

(** Single-shard arena: the whole stream, stream order. *)
let build1 (packets : Packet.t array) = Flat.of_packets packets

(** Packets per shard of a built arena set. *)
let loads arenas = Array.map Flat.length arenas

let total_packets arenas =
  Array.fold_left (fun acc a -> acc + Flat.length a) 0 arenas
