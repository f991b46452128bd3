(** Paced, bounded-queue streaming replay: the driver between a packet
    source (a decoded capture file, a synthetic trace) and a consumer
    (engine, sharded engine, network controller).

    The driver alternates {e arrival turns} and {e service turns} over
    a bounded FIFO — an array ring — that models the ingest ring
    between capture and processing:

    - an arrival turn pulls the packets the pacing mode says are ready
      — a fixed burst in [Asap] mode, everything due by the wall clock
      in [Realtime] mode (capture timestamps scaled by [speedup]) —
      and enqueues them;
    - a service turn pops at most [chunk] packets and hands them to
      the sink as one batch.  Service fires when the queue reaches the
      lesser of [chunk] and [depth] (a queue shallower than the batch
      still drains), when the source is exhausted, and — on paced
      replays — whenever an arrival turn pulled nothing, so queued
      packets are delivered promptly instead of waiting for a full
      batch to become due.

    When an arrival finds the queue full, the backpressure policy
    decides: [Block] pauses the source (a file can wait — lossless),
    [Drop] models a live capture that cannot ([`count-and-drop`]: the
    overflow is discarded and counted).  With the default burst no
    larger than the queue, [Asap]+[Drop] never actually drops; a burst
    above the queue depth — or a paced microburst bigger than the ring
    — overruns deterministically, which is what the backpressure tests
    pin down.

    Telemetry: dropped packets bump [Ingest_dropped]; queue depth is
    observed after every arrival turn and capture-timestamp gaps for
    every pulled packet ({!Newton_telemetry.Stats}). *)

open Newton_packet
module Stats = Newton_telemetry.Stats

type pace =
  | Asap                (** replay as fast as the consumer allows *)
  | Realtime of float   (** capture-timestamp pacing, [speedup] x *)

type policy = Block | Drop

type source = unit -> Packet.t option

type summary = {
  delivered : int;     (** packets handed to the sink *)
  dropped : int;       (** packets discarded on a full queue *)
  chunks : int;        (** sink invocations *)
  wall_seconds : float;
}

let default_depth = 4096
let default_chunk = 1024

let of_packets (packets : Packet.t array) : source =
  let i = ref 0 in
  fun () ->
    if !i >= Array.length packets then None
    else begin
      let p = packets.(!i) in
      incr i;
      Some p
    end

let of_trace trace = of_packets (Newton_trace.Gen.packets trace)

(* One-slot lookahead so pacing can ask "when is the next packet due"
   without consuming it. *)
type 'a peekable = { mutable slot : 'a option; next : unit -> 'a option }

let peek pk =
  match pk.slot with
  | Some _ as s -> s
  | None ->
      pk.slot <- pk.next ();
      pk.slot

let pop pk =
  match peek pk with
  | None -> None
  | some ->
      pk.slot <- None;
      some

let exhausted pk = match peek pk with None -> true | Some _ -> false

(* The bounded FIFO as an array ring: no cell per packet.  It starts
   small and doubles up to the queue depth, so a deep queue costs
   memory only when it really fills; popped slots are overwritten with
   [empty], so the ring never keeps a delivered packet alive. *)
type ring = {
  mutable slots : Packet.t array;
  mutable head : int;  (* oldest queued packet *)
  mutable len : int;
  cap_max : int;
}

let empty = Packet.create ()
let initial_slots = 64

let ring_create depth =
  { slots = Array.make (Int.min depth initial_slots) empty; head = 0; len = 0;
    cap_max = depth }

(* Callers push only below [cap_max]. *)
let ring_push r p =
  let cap = Array.length r.slots in
  if r.len = cap then begin
    let slots = Array.make (Int.min (2 * cap) r.cap_max) empty in
    let first = cap - r.head in
    Array.blit r.slots r.head slots 0 first;
    Array.blit r.slots 0 slots first (r.len - first);
    r.slots <- slots;
    r.head <- 0
  end;
  let cap = Array.length r.slots in
  let tail = r.head + r.len in
  r.slots.(if tail >= cap then tail - cap else tail) <- p;
  r.len <- r.len + 1

(* Move the [n] oldest packets into [batch], clearing their slots. *)
let ring_take r batch n =
  let cap = Array.length r.slots in
  let first = Int.min n (cap - r.head) in
  Array.blit r.slots r.head batch 0 first;
  Array.fill r.slots r.head first empty;
  Array.blit r.slots 0 batch first (n - first);
  Array.fill r.slots 0 (n - first) empty;
  let head = r.head + n in
  r.head <- (if head >= cap then head - cap else head);
  r.len <- r.len - n

let run ?(depth = default_depth) ?(chunk = default_chunk) ?burst ?(pace = Asap)
    ?(policy = Block) ?(stats = Stats.null) (source : source)
    (sink : Packet.t array -> unit) =
  if depth < 1 then invalid_arg "Stream.run: depth must be positive";
  if chunk < 1 then invalid_arg "Stream.run: chunk must be positive";
  let burst = Option.value burst ~default:chunk in
  if burst < 1 then invalid_arg "Stream.run: burst must be positive";
  (match pace with
  | Realtime s when s <= 0.0 ->
      invalid_arg "Stream.run: speedup must be positive"
  | _ -> ());
  let src = { slot = None; next = source } in
  let q = ring_create depth in
  let t_start = Unix.gettimeofday () in
  (* Wall-clock origin for Realtime pacing, fixed at the first packet. *)
  let clock = ref None in
  let due p =
    match pace with
    | Asap -> 0.0
    | Realtime speedup ->
        let ts = Packet.ts p in
        let t0_wall, t0_ts =
          match !clock with
          | Some c -> c
          | None ->
              let c = (t_start, ts) in
              clock := Some c;
              c
        in
        t0_wall +. ((ts -. t0_ts) /. speedup)
  in
  let prev_ts = ref nan in
  let dropped = ref 0 in
  let delivered = ref 0 in
  let chunks = ref 0 in
  let pull_one () =
    match pop src with
    | None -> ()
    | Some p ->
        let ts = Packet.ts p in
        if not (Float.is_nan !prev_ts) then begin
          let gap = ts -. !prev_ts in
          Stats.observe_interarrival stats (if gap < 0.0 then 0.0 else gap)
        end;
        prev_ts := ts;
        if q.len < depth then ring_push q p
        else begin
          incr dropped;
          Stats.bump stats Stats.Ingest_dropped 1
        end
  in
  (* Returns how many packets the turn consumed from the source, so the
     loop can tell a paused/idle turn from a productive one. *)
  let arrival_turn () =
    let pulled = ref 0 in
    (match pace with
    | Asap ->
        (* [Block]: the source pauses at the high-water mark; [Drop]:
           the full burst arrives regardless and overflow is counted. *)
        let budget =
          match policy with
          | Block -> Int.min burst (depth - q.len)
          | Drop -> burst
        in
        while !pulled < budget && not (exhausted src) do
          pull_one ();
          incr pulled
        done
    | Realtime _ ->
        (* Sleep only when idle: queue drained and nothing due yet. *)
        (match peek src with
        | Some p when q.len = 0 ->
            let wait = due p -. Unix.gettimeofday () in
            if wait > 1e-4 then Unix.sleepf wait
        | _ -> ());
        let now = Unix.gettimeofday () in
        let ready p = due p <= now in
        let continue = ref true in
        while !continue do
          match peek src with
          | Some p when ready p ->
              if policy = Block && q.len >= depth then continue := false
              else begin
                pull_one ();
                incr pulled
              end
          | _ -> continue := false
        done);
    Stats.observe_queue_depth stats q.len;
    !pulled
  in
  (* The sink has a batch for the duration of its call: it is cleared
     when the sink returns, because a batch array is too large for the
     minor heap and would otherwise keep its delivered packets alive,
     promoting every one of them at the next minor collection. *)
  let service_turn () =
    let n = Int.min chunk q.len in
    if n > 0 then begin
      let batch = Array.make n empty in
      ring_take q batch n;
      sink batch;
      Array.fill batch 0 n empty;
      delivered := !delivered + n;
      incr chunks
    end
  in
  (* A queue shallower than [chunk] can never hold a full batch, so
     service at the high-water mark — otherwise [Block] would pause the
     source forever with the service condition unreachable. *)
  let service_at = Int.min chunk depth in
  let paced = match pace with Realtime _ -> true | Asap -> false in
  let rec loop () =
    let pulled = arrival_turn () in
    (* Paced replays also deliver a partial batch whenever an arrival
       turn produced nothing: the queued packets would otherwise sit
       undelivered (and the loop would spin) until enough of the
       capture became due to fill a whole chunk. *)
    if q.len >= service_at || exhausted src || (paced && pulled = 0) then
      service_turn ();
    if not (exhausted src) || q.len > 0 then loop ()
  in
  if not (exhausted src) then loop ();
  {
    delivered = !delivered;
    dropped = !dropped;
    chunks = !chunks;
    wall_seconds = Unix.gettimeofday () -. t_start;
  }
