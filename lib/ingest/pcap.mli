(** Classic pcap (libpcap "savefile") reader and writer.

    The reader accepts all four magic variants (native / byte-swapped,
    microsecond / nanosecond); the writer always emits little-endian,
    nanosecond-resolution Ethernet files, so trace-relative float
    timestamps (< ~2^22 s) come back within half a nanosecond. *)

val magic_usec : int
val magic_nsec : int

(** LINKTYPE_ETHERNET (1), the only link layer {!Decode} understands. *)
val linktype_ethernet : int

type header = {
  big_endian : bool;  (** file byte order is big-endian *)
  nsec : bool;        (** sub-second field is nanoseconds *)
  snaplen : int;
  linktype : int;
}

(** Parse the 24-byte global header.
    @raise Reader.Format_error on bad magic, version, or truncation. *)
val read_header : Reader.t -> header

(** Step onto the next record: the frame then views its captured bytes
    in the reader's buffer.  [Truncated] when the file ends mid-record
    or a length field is corrupt (count it, don't crash), [End] on a
    clean record boundary. *)
val read_record : header -> Reader.t -> Reader.frame -> Reader.step

type writer

(** Write a nanosecond-resolution Ethernet pcap global header (snap
    length 65535) and return a buffered writer. *)
val create_writer : out_channel -> writer

(** Append one record.  [orig_len] defaults to the captured length.
    @raise Reader.Format_error on a negative timestamp. *)
val write_record : writer -> ts:float -> ?orig_len:int -> bytes -> unit

(** Flush buffered records to the channel (does not close it). *)
val flush_writer : writer -> unit

(** Split float seconds into (seconds, nanoseconds) as the writer
    stores them (sub-second carry handled); exposed for tests. *)
val split_ts : float -> int * int
