(** Differential harness: replay the same trace through the simulator
    engine and the interpreted P4 pipeline and compare report
    multisets — the ground truth that emission + rule generation
    preserve engine semantics. *)

(** Why a packet runs on neither side. *)
type skip =
  | No_faithful_frame
      (** {!Newton_ingest.Decode} does not read the packet's fields back
          from its {!Newton_ingest.Encode.frame}: DNS fields off port
          53, L4 fields on bare IP, lengths no header carries, an IP
          version other than 4 or 6 *)
  | Outside_parser
      (** the frame is faithful but newton.p4 has no parser state for
          it: a tunneled packet that is IPv6, carries DNS fields or has
          an inner protocol other than TCP, UDP or ICMP; ICMPv6 over
          IPv4; ICMP over IPv6 *)

val skip_to_string : skip -> string

(** The bytes the interpreter parses for a packet: its
    {!Newton_ingest.Encode.frame}, the frame a capture export writes.
    The ingress port is switch metadata, not bytes (its 802.1Q tag is
    parsed and ignored) — pass it to {!Interp.run} separately. *)
val wire : Newton_packet.Packet.t -> (string, skip) result

type outcome = {
  query_id : int;
  total : int;  (** packets offered *)
  replayed : int;  (** packets run on both targets *)
  skipped : int;  (** packets {!wire} skips *)
  skip_reasons : (string * int) list;  (** {!skip_to_string} text -> count *)
  engine_reports : Newton_query.Report.t list;
  p4_reports : Newton_query.Report.t list;
}

(** Report multisets identical, aggregate values included
    ({!Newton_query.Report.diff} of the P4 reports against the
    engine's is empty), and not both empty?  A run on which neither
    side reported is {e vacuous}: it compared nothing, so it does not
    match. *)
val matched : outcome -> bool

(** One-line human summary: coverage, report counts, then [identical],
    [vacuous] (neither side reported) or, on a mismatch, the
    engine-only/P4-only/changed counts with the first report of each
    kind, printed by {!Newton_query.Report.to_string}. *)
val describe : outcome -> string

(** Install a compiled query on a fresh engine and a fresh
    interpreter over the emitted program, replay [packets] (timestamp
    order) through both, and collect reports.  Packets {!wire} skips
    run on neither side and are counted.  [Error] when the
    query has no rule encoding. *)
val run_query :
  ?class_id:int ->
  ?layout:Newton_p4gen.Emit.layout ->
  Newton_compiler.Compose.t ->
  Newton_packet.Packet.t list ->
  (outcome, Newton_p4gen.Rules.issue) Stdlib.result
