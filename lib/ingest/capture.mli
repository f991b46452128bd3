(** Facade over the capture formats: magic-based sniffing, decoded
    loading and lazy streaming of pcap/pcapng files, and pcap export of
    synthetic traces.  One cursor over a {!Reader} block buffer serves
    [fold], [load], [with_source] and [info]; frames are decoded in
    place.  All counted in the telemetry sink: one
    [Ingest_frames] bump per record, then exactly one of
    [Ingest_decoded] / [Ingest_non_ip] / [Ingest_truncated] /
    [Ingest_fragment] / [Ingest_malformed]. *)

(** Raised for any structural problem with a capture file — bad magic,
    bad version, malformed block, unreadable path.  Frame-level damage
    (a record the capture cut short, a non-IP frame) is a counted skip
    instead, never an exception.  The same exception as
    {!Reader.Format_error}. *)
exception Format_error of string

type format = Pcap_format | Pcapng_format

val format_to_string : format -> string

(** Decode a capture into packets, in file order.
    @raise Format_error on a structurally bad file *)
val fold :
  ?stats:Newton_telemetry.Stats.sink ->
  string ->
  ('a -> Newton_packet.Packet.t -> 'a) ->
  'a ->
  'a

(** The whole capture as a trace named after the file. *)
val load : ?stats:Newton_telemetry.Stats.sink -> string -> Newton_trace.Gen.t

(** [with_source path f] opens the capture and hands [f] a lazy pull
    source (decoding record-by-record — the whole file is never
    resident) for {!Stream.run}.  The file is closed when [f] returns
    or raises. *)
val with_source :
  ?stats:Newton_telemetry.Stats.sink ->
  string ->
  (Stream.source -> 'a) ->
  'a

(** Export a trace as a classic nanosecond-resolution Ethernet pcap
    file (see {!Pcap.create_writer}). *)
val export : Newton_trace.Gen.t -> string -> unit

type info = {
  format : format;
  frames : int;        (** capture records in the file *)
  decoded : int;
  non_ip : int;
  truncated : int;     (** decoder skips + a file cut mid-record *)
  fragment : int;      (** non-first IP fragments *)
  malformed : int;     (** internally inconsistent headers *)
  clean_end : bool;    (** file ended on a record/block boundary *)
  interfaces : int;    (** pcapng interface blocks; 1 for classic pcap *)
  linktype : int;      (** pcap link type; -1 when per-interface (pcapng) *)
  nsec : bool option;  (** pcap sub-second unit; [None] for pcapng *)
  big_endian : bool option;  (** pcap byte order; [None] for pcapng *)
  snaplen : int;       (** pcap snap length; -1 when per-interface *)
  first_ts : float option;
  last_ts : float option;
}

(** One pass over the file: format details plus decode accounting —
    what [newton pcap-info] prints. *)
val info : string -> info
