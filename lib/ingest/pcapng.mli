(** pcapng reader: SHB (per-section byte order, multiple sections), IDB
    (several per section, per-interface link type and [if_tsresol]),
    EPB and SPB packet blocks; other block types are skipped.  Export
    goes through the {!Pcap} writer. *)

type interface = {
  if_linktype : int;
  if_snaplen : int;
  units_per_sec : float;  (** timestamp units per second *)
}

type reader

(** Validate the leading Section Header Block.
    @raise Reader.Format_error if the input is not pcapng. *)
val create_reader : Reader.t -> reader

(** Step onto the next packet record, skipping interface/statistics/
    unknown blocks: the frame then views the packet data in the
    reader's buffer.  [Truncated] when the file ends inside a block.
    @raise Reader.Format_error on structurally bad blocks. *)
val read_record : reader -> Reader.frame -> Reader.step

(** Interface blocks seen so far in the current section. *)
val num_interfaces : reader -> int
