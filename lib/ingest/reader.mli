(** The block reader every capture format reads through: one reusable
    buffer over the input channel.  Record headers are parsed where
    they sit in the buffer and frames are handed to {!Decode.frame_at}
    as views into it, so reading a record copies nothing per record.

    The buffer starts at {!block_size} bytes and grows only when a
    single record does not fit; a capture's reader therefore holds at
    most [max block_size (largest record)] bytes, and the formats cap a
    record at 64 MiB. *)

(** Raised for any structural problem with a capture file; shared by
    {!Pcap}, {!Pcapng} and {!Capture}. *)
exception Format_error of string

(** [Printf]-style {!Format_error}. *)
val error : ('a, unit, string, 'b) format4 -> 'a

type t

(** The initial buffer size, 64 KiB. *)
val block_size : int

val create : in_channel -> t

(** [ensure t n] makes [n] unconsumed bytes available in {!buffer} at
    {!pos}; [false] when the input ends first.  It may move the
    unconsumed bytes (and replace the buffer), so offsets taken before
    the call are stale after it. *)
val ensure : t -> int -> bool

(** The current buffer; valid until the next {!ensure}. *)
val buffer : t -> bytes

(** Offset of the first unconsumed byte in {!buffer}. *)
val pos : t -> int

(** Consume [n] bytes, all made available by an {!ensure}. *)
val advance : t -> int -> unit

(** The record a format reader last stepped onto: its captured bytes
    are [buffer t] from [off], [len] long — valid until the next read. *)
type frame = {
  mutable ts : float;      (** capture timestamp, seconds *)
  mutable off : int;
  mutable len : int;       (** captured length *)
  mutable orig_len : int;  (** original length on the wire *)
  mutable linktype : int;
}

val frame : unit -> frame

(** What a format reader's step found: a record (now in the frame), a
    file cut inside a record, or a clean end. *)
type step = Frame | Truncated | End

(** [End] when nothing is left unconsumed, [Truncated] otherwise: what
    a failed {!ensure} at a record boundary means. *)
val cut : t -> step
