(** Paced, bounded-queue streaming replay.

    The driver alternates arrival turns (pull what the pacing mode
    says is ready from the source) and service turns (hand at most
    [chunk] queued packets to the sink as one batch) over a bounded
    FIFO, an array ring that grows up to [depth] as it fills.  A full queue engages the backpressure policy: {!Block}
    pauses the source (lossless — a capture file can wait), {!Drop}
    models a live capture that cannot and counts the overflow.

    Single-threaded and deterministic under {!Asap}: with a fixed
    source, queue depth, chunk and burst, delivery order and drop
    counts are reproducible. *)

type pace =
  | Asap                (** replay as fast as the consumer allows *)
  | Realtime of float   (** pace by capture timestamps, [speedup] x *)

type policy = Block | Drop

(** A pull source; [None] means exhausted (and stays [None]). *)
type source = unit -> Newton_packet.Packet.t option

type summary = {
  delivered : int;     (** packets handed to the sink *)
  dropped : int;       (** packets discarded on a full queue *)
  chunks : int;        (** sink invocations *)
  wall_seconds : float;
}

val default_depth : int
val default_chunk : int

val of_packets : Newton_packet.Packet.t array -> source
val of_trace : Newton_trace.Gen.t -> source

(** [run source sink] pumps the source dry (under {!Drop}, packets
    overflowing the queue are discarded rather than delivered).

    [depth] bounds the queue (default {!default_depth}); [chunk] is
    the service batch (default {!default_chunk}) — when [depth] is
    smaller than [chunk], batches are capped at [depth] and the queue
    is serviced whenever it fills; [burst] is the {!Asap} arrival
    batch (default [chunk] — keep it at or below [depth] unless
    deliberately overrunning); [stats] receives [Ingest_dropped]
    bumps, queue-depth and inter-arrival observations.

    The sink has each batch for the duration of its call: it may read
    and overwrite it, and keep its packets, but not the array, which
    [run] clears when the call returns.

    @raise Invalid_argument on a non-positive [depth], [chunk],
    [burst] or speedup. *)
val run :
  ?depth:int ->
  ?chunk:int ->
  ?burst:int ->
  ?pace:pace ->
  ?policy:policy ->
  ?stats:Newton_telemetry.Stats.sink ->
  source ->
  (Newton_packet.Packet.t array -> unit) ->
  summary
