(** Packet-to-shard assignment for the parallel replay engine.

    A shard key decides which replica engine owns a packet's state.  The
    guarantee a strategy must give is {e locality}: any two packets that
    contribute to the same piece of stateful query state (a [distinct]
    entry, a [reduce] counter) must land on the same shard, or the
    shard-local guards will see partial aggregates.

    - [Flow] (the default) hashes the 5-tuple, so every flow's state is
      local.  Queries that aggregate {e across} flows (per-[dip]
      counters, say) see split aggregates — fine for throughput replay,
      documented divergence for thresholds (docs/PARALLELISM.md).
    - [Branch_key c] derives per-branch key extraction from a compiled
      query: a packet is matched against each branch's [newton_init]
      entry and sharded on the {e value} of that branch's aggregation
      keys.  This keeps every aggregate of the query on one shard (the
      Sonata-style partition-by-query-key), so shard-merged results
      match the sequential engine modulo sketch-collision noise. *)

open Newton_packet
open Newton_sketch
open Newton_query
open Newton_compiler

type strategy =
  | Flow
  | Branch_key of Compose.t

(* One seed for every strategy so that assignment is stable across
   runs, engines, and OCaml versions. *)
let shard_seed = 0x5bd1e995

type t = { jobs : int; assign_raw : Packet.t -> int }

(* Same value as [Hash.hash_vector] over the materialised 5-tuple (the
   hash5 equivalence is covered by the shard tests), minus the
   per-packet array allocation — this runs once per packet in the
   arena-build pass. *)
let flow_hash pkt =
  Hash.hash5 ~seed:shard_seed
    (Packet.get pkt Field.Src_ip)
    (Packet.get pkt Field.Dst_ip)
    (Packet.get pkt Field.Proto)
    (Packet.get pkt Field.Src_port)
    (Packet.get pkt Field.Dst_port)

(* The aggregation keys of one branch: the keys of the last stateful
   primitive ([Reduce] wins over [Distinct] — reduce keys are the
   coarser, report-carrying grouping), else the last [Map]. *)
let branch_agg_keys (branch : Ast.primitive list) =
  let last_reduce, last_distinct, last_map =
    List.fold_left
      (fun (r, d, m) prim ->
        match prim with
        | Ast.Reduce { keys; _ } -> (Some keys, d, m)
        | Ast.Distinct keys -> (r, Some keys, m)
        | Ast.Map keys -> (r, d, Some keys)
        | Ast.Filter _ -> (r, d, m))
      (None, None, None) branch
  in
  match (last_reduce, last_distinct, last_map) with
  | Some k, _, _ | None, Some k, _ | None, None, Some k -> k
  | None, None, None -> []

let project pkt (keys : Ast.key list) =
  Array.of_list
    (List.map (fun (k : Ast.key) -> Packet.get pkt k.Ast.field land k.Ast.mask) keys)

let entry_matches pkt (e : Ir.init_entry) =
  List.for_all
    (fun (field, value, mask) -> Packet.get pkt field land mask = value)
    e.Ir.ie_matches

(* Branch_key: precompute (init entry, agg keys) per branch; a packet
   shards on the key values of the first branch it matches, falling
   back to the flow hash when it matches none (such packets never touch
   query state, so any shard is correct). *)
let branch_key_hash (compiled : Compose.t) =
  let plans =
    Array.mapi
      (fun b entry ->
        (entry, branch_agg_keys (List.nth compiled.Compose.query.Ast.branches b)))
      compiled.Compose.init_entries
  in
  fun pkt ->
    let rec pick i =
      if i >= Array.length plans then flow_hash pkt
      else
        let entry, keys = plans.(i) in
        if entry_matches pkt entry then
          match keys with
          | [] -> flow_hash pkt
          | keys -> Hash.hash_vector ~seed:shard_seed (project pkt keys)
        else pick (i + 1)
    in
    pick 0

let make ~jobs strategy =
  if jobs < 1 then invalid_arg "Shard.make: jobs must be >= 1";
  let assign_raw =
    match strategy with
    | Flow -> flow_hash
    | Branch_key compiled -> branch_key_hash compiled
  in
  { jobs; assign_raw }

let jobs t = t.jobs

(* Flow and branch-key hashes are never negative ([Hash.chain_fin]
   shifts right), so the [land max_int] changes no index today; it keeps
   [assign] in [0, jobs) for any raw hash, where [abs] would not
   ([abs min_int = min_int]). *)
let assign t pkt =
  if t.jobs = 1 then 0 else (t.assign_raw pkt land max_int) mod t.jobs

(** The locality-preserving strategy for one compiled query. *)
let for_compiled compiled = Branch_key compiled

let strategy_to_string = function
  | Flow -> "flow"
  | Branch_key c -> Printf.sprintf "branch-key(%s)" c.Compose.query.Ast.name
