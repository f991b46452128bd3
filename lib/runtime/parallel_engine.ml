(** Domain-pool sharded trace replay (§6-scale evaluation path).

    Wraps [jobs] replica {!Engine}s — one per shard, each owning the
    full rule layout of every installed query but only the state of the
    packets its shard key routes to it.  Replay partitions the packet
    stream with a {!Shard} strategy, [Flow] or [Branch_key]
    (order-preserving per shard), processes each shard's stream in
    fixed-size batches on its own OCaml 5 domain ({!Domain_pool}), and
    folds the per-shard results back together with {!Merge}:
    epoch-aligned report concatenation plus ALU-merged sketch state.

    With [jobs = 1] the engine degenerates to the sequential
    {!Engine} — same packets, same order, bit-identical reports — which
    is the correctness oracle the differential tests rely on. *)

open Newton_packet

type t = {
  jobs : int;
  batch : int;
  strategy : Shard.strategy;
  sharder : Shard.t;
  shards : Engine.t array;
  mutable shard_packets : int array; (* packets routed per shard, lifetime *)
}

let default_batch = 512

let create ?jobs ?(batch = default_batch) ?(shard_key = Shard.Flow)
    ~switch_id () =
  let jobs =
    match jobs with
    | Some j when j < 1 -> invalid_arg "Parallel_engine.create: jobs < 1"
    | Some j -> j
    | None -> max 1 (Domain_pool.recommended_jobs ())
  in
  if batch <= 0 then invalid_arg "Parallel_engine.create: batch <= 0";
  {
    jobs;
    batch;
    strategy = shard_key;
    sharder = Shard.make ~jobs shard_key;
    shards = Array.init jobs (fun _ -> Engine.create ~switch_id ());
    shard_packets = Array.make jobs 0;
  }

let jobs t = t.jobs
let batch t = t.batch
let strategy t = t.strategy
let shard_engines t = t.shards

(** Merged per-domain telemetry: each shard engine owns its sink (no
    cross-domain contention); the fold adds counters and histograms the
    same way {!Merge} folds sketch state. *)
let merged_sink t =
  Newton_telemetry.Stats.merge_all
    (Array.to_list (Array.map Engine.sink t.shards))

(** Enable (fresh per-shard sinks) or disable ([Stats.null]) telemetry
    on every shard. *)
let set_telemetry t enabled =
  Array.iter
    (fun e ->
      Engine.set_sink e
        (if enabled then Newton_telemetry.Stats.create ()
         else Newton_telemetry.Stats.null))
    t.shards

(** Packets routed to each shard so far (load-balance view). *)
let shard_loads t = Array.copy t.shard_packets

(* ---------------- install / remove ---------------- *)

(** Install a compiled query on every shard under one uid.  The
    returned rule count is the per-switch footprint (each shard is a
    core of the same switch, so rules are counted once).
    @raise Engine.Rules_exhausted as {!Engine.install}; shard 0 is
    installed first, so a rejected install leaves no residue. *)
let install t ?uid compiled =
  let uid, rules = Engine.install t.shards.(0) ?uid compiled in
  for i = 1 to t.jobs - 1 do
    ignore (Engine.install t.shards.(i) ~uid compiled)
  done;
  (uid, rules)

(** Remove an installed query from every shard; freed rules are the
    per-switch count. *)
let remove t uid =
  let freed = Engine.remove t.shards.(0) uid in
  for i = 1 to t.jobs - 1 do
    ignore (Engine.remove t.shards.(i) uid)
  done;
  freed

(** Mirror-session budget, applied per shard (a sharded switch budgets
    each core's mirror port independently; divergence from the
    sequential engine's single budget is documented). *)
let set_report_budget t n =
  Array.iter (fun e -> Engine.set_report_budget e n) t.shards

(* ---------------- replay ---------------- *)

(** Stage 1 of a large replay: pre-shard the stream into contiguous
    per-domain {!Flat} arenas (see {!Arena}).  The shard function runs
    once per packet here — the replay loop never dispatches again. *)
let build_arenas t packets = Arena.build t.sharder packets

(** Stage 2: replay every shard's arena through its engine's compiled
    program, one domain per shard (inline when [jobs = 1]).  ALU state
    and reports stay shard-local throughout; they fold together only at
    observation points ({!reports}, {!merged_arrays}, {!merged_sink}).
    @raise Invalid_argument when the arena count differs from [jobs]. *)
let replay_arenas t arenas =
  if Array.length arenas <> t.jobs then
    invalid_arg
      (Printf.sprintf "Parallel_engine.replay_arenas: %d arenas for %d shards"
         (Array.length arenas) t.jobs);
  if t.jobs = 1 then Engine.process_flat t.shards.(0) arenas.(0)
  else
    (* Cap concurrent domains at the machine's core count: shards are
       CPU-bound, and oversubscribing cores only adds cross-domain GC
       synchronisation.  Arenas are independent, so waves preserve
       semantics exactly. *)
    ignore
      (Domain_pool.run
         ~max_domains:(max 1 (Domain_pool.recommended_jobs ()))
         (Array.init t.jobs (fun s () ->
              Engine.process_flat t.shards.(s) arenas.(s))));
  Array.iteri
    (fun s a -> t.shard_packets.(s) <- t.shard_packets.(s) + Flat.length a)
    arenas

(** Replay a packet array.
    One shard, or a call of at most [batch] packets, is not worth shard
    setup: it is dispatched inline on the calling domain, per packet,
    with the same shard routing — state placement is identical to the
    arena path, so small and large calls can be freely mixed on one
    engine (the chunked ingest driver does exactly that for its tail
    chunk).  Larger sharded calls pre-shard into contiguous arenas once,
    then replay each arena on its own domain.  Both paths run the same
    compiled engine step. *)
let process_packets t packets =
  let n = Array.length packets in
  if n = 0 then ()
  else if t.jobs = 1 then begin
    Array.iter (Engine.process_packet t.shards.(0)) packets;
    t.shard_packets.(0) <- t.shard_packets.(0) + n
  end
  else if n <= t.batch then
    for i = 0 to n - 1 do
      let s = Shard.assign t.sharder packets.(i) in
      Engine.process_packet t.shards.(s) packets.(i);
      t.shard_packets.(s) <- t.shard_packets.(s) + 1
    done
  else replay_arenas t (build_arenas t packets)

let process_trace t trace =
  if Newton_trace.Gen.length trace > 0 then
    process_packets t (Newton_trace.Gen.packets trace)

(* ---------------- merged results ---------------- *)

(** Shard-merged reports: with [jobs = 1], exactly the sequential
    engine's report stream; otherwise the epoch-aligned {!Merge} of the
    per-shard streams. *)
let reports t =
  if t.jobs = 1 then Engine.reports t.shards.(0)
  else Merge.reports (Array.to_list (Array.map Engine.reports t.shards))

(** Drain every shard and return the merged stream. *)
let drain_reports t =
  if t.jobs = 1 then Engine.drain_reports t.shards.(0)
  else
    Merge.reports (Array.to_list (Array.map Engine.drain_reports t.shards))

(** Total reports emitted across shards (pre-dedup — the monitoring
    message count a sharded deployment puts on the wire). *)
let message_count t =
  Array.fold_left (fun acc e -> acc + Engine.report_count e) 0 t.shards

let packets_seen t =
  Array.fold_left (fun acc e -> acc + Engine.packets_seen e) 0 t.shards

(** ALU-merged register state of one installed query across shards
    (see {!Merge.instance_arrays}); [None] if the uid is unknown. *)
let merged_arrays t uid =
  let instances =
    Array.to_list t.shards
    |> List.filter_map (fun e -> Engine.find_instance e uid)
  in
  match instances with [] -> None | l -> Some (Merge.instance_arrays l)

let to_string t =
  Printf.sprintf "parallel-engine jobs=%d batch=%d shard=%s%s" t.jobs t.batch
    (Shard.strategy_to_string t.strategy)
    (if Domain_pool.parallel then "" else " (sequential fallback)")
