(** The daemon's background replay driver: a time-sorted packet array
    fed into [Deploy.process_packet] in bounded steps between socket
    events, so intents install and withdraw while traffic is flowing.
    The clock is a parameter ([~now]) so tests drive replay
    deterministically.  Pacing is {!Newton_ingest.Stream.pace}: [Asap]
    as fast as the event loop allows, [Realtime s] each packet at its
    trace timestamp divided by [s]. *)

type t

val of_packets :
  ?pace:Newton_ingest.Stream.pace -> topo:Newton_network.Topo.t ->
  desc:string -> Newton_packet.Packet.t array -> t

val of_trace :
  ?pace:Newton_ingest.Stream.pace -> topo:Newton_network.Topo.t ->
  desc:string -> Newton_trace.Gen.t -> t

val length : t -> int
val position : t -> int
val finished : t -> bool
val source : t -> string

(** Replay-side counters ([Packets_processed]); label and merge into
    the daemon's snapshot. *)
val stats : t -> Newton_telemetry.Stats.sink

(** Seconds until the next packet is due ([Some 0.] when due now),
    [None] when the trace is exhausted — the daemon's select timeout. *)
val next_due_in : t -> now:float -> float option

(** Process up to [budget] due packets through the deploy; returns how
    many were processed.  Under [Realtime] pacing the first call fixes
    the schedule origin at [now]. *)
val step : t -> now:float -> budget:int -> Newton_controller.Deploy.t -> int

(** Drain the remainder ignoring pacing (bench/test epilogue); returns
    packets processed. *)
val run_to_end : t -> Newton_controller.Deploy.t -> int
