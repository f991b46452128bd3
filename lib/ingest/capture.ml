(** Facade over the capture formats: sniff pcap vs. pcapng by magic,
    decode records into packets with counted skips, stream lazily for
    {!Stream.run}, and export synthetic traces back to pcap.

    One cursor serves [fold], [load], [info] and [with_source]: the
    format's reader steps through a {!Reader} block buffer and each
    frame is decoded where it sits ({!Decode.frame_at}), so no record
    is copied out of the buffer.

    Every frame pulled through this module is accounted for in the
    telemetry sink: [Ingest_frames] per record, then exactly one of
    [Ingest_decoded] / [Ingest_non_ip] / [Ingest_truncated] /
    [Ingest_fragment] / [Ingest_malformed] (a file cut mid-record also
    counts as truncated). *)

module Stats = Newton_telemetry.Stats
module Gen = Newton_trace.Gen

exception Format_error = Reader.Format_error

type format = Pcap_format | Pcapng_format

let format_to_string = function
  | Pcap_format -> "pcap"
  | Pcapng_format -> "pcapng"

(* pcapng's block-type magic is a byte palindrome, so one endianness
   suffices to recognize it. *)
let pcapng_magic = 0x0A0D0D0A

let format_of_magic b off =
  let le = Int32.to_int (Bytes.get_int32_le b off) land 0xFFFFFFFF in
  let be = Int32.to_int (Bytes.get_int32_be b off) land 0xFFFFFFFF in
  if le = pcapng_magic then Pcapng_format
  else if
    le = Pcap.magic_usec || be = Pcap.magic_usec || le = Pcap.magic_nsec
    || be = Pcap.magic_nsec
  then Pcap_format
  else raise (Format_error "not a pcap or pcapng capture (bad magic)")

let with_file path f =
  let ic =
    try open_in_bin path
    with Sys_error m -> raise (Format_error m)
  in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> f ic)

(* The one record cursor every reader of a capture steps: a format
   reader over the block buffer, and the frame it steps onto. *)
type reader = Cpcap of Pcap.header | Cng of Pcapng.reader

type cursor = { rd : Reader.t; reader : reader; frame : Reader.frame }

let open_cursor ic =
  let rd = Reader.create ic in
  if not (Reader.ensure rd 4) then
    raise (Format_error "capture shorter than a format magic");
  let reader =
    match format_of_magic (Reader.buffer rd) (Reader.pos rd) with
    | Pcap_format -> Cpcap (Pcap.read_header rd)
    | Pcapng_format -> Cng (Pcapng.create_reader rd)
  in
  { rd; reader; frame = Reader.frame () }

let next c =
  match c.reader with
  | Cpcap h -> Pcap.read_record h c.rd c.frame
  | Cng r -> Pcapng.read_record r c.frame

(* Decode the cursor's frame in place, keeping the books. *)
let decode stats c =
  Stats.bump stats Stats.Ingest_frames 1;
  let f = c.frame in
  match
    Decode.frame_at ~linktype:f.Reader.linktype ~ts:f.Reader.ts
      (Reader.buffer c.rd) f.Reader.off f.Reader.len
  with
  | Decode.Decoded _ as d ->
      Stats.bump stats Stats.Ingest_decoded 1;
      d
  | Decode.Skipped reason as d ->
      Stats.bump stats
        (match reason with
        | Decode.Non_ip -> Stats.Ingest_non_ip
        | Decode.Truncated -> Stats.Ingest_truncated
        | Decode.Fragment -> Stats.Ingest_fragment
        | Decode.Malformed -> Stats.Ingest_malformed)
        1;
      d

(* A file cut mid-record is one frame, skipped as truncated. *)
let count_cut stats =
  Stats.bump stats Stats.Ingest_frames 1;
  Stats.bump stats Stats.Ingest_truncated 1

(* Step the cursor to its end, handing [f] every decode result; [true]
   iff the file ended on a record boundary. *)
let iter_results stats c f =
  let rec go () =
    match next c with
    | Reader.Frame ->
        f (decode stats c);
        go ()
    | Reader.Truncated ->
        count_cut stats;
        false
    | Reader.End -> true
  in
  go ()

let fold ?(stats = Stats.null) path f init =
  with_file path (fun ic ->
      let c = open_cursor ic in
      let acc = ref init in
      ignore
        (iter_results stats c (function
          | Decode.Decoded p -> acc := f !acc p
          | Decode.Skipped _ -> ()));
      !acc)

let load ?stats path =
  let rev = fold ?stats path (fun acc p -> p :: acc) [] in
  Gen.of_packets ~name:(Filename.basename path)
    (Array.of_list (List.rev rev))

let with_source ?(stats = Stats.null) path f =
  with_file path (fun ic ->
      let c = open_cursor ic in
      let finished = ref false in
      let rec next_packet () =
        if !finished then None
        else
          match next c with
          | Reader.Frame -> (
              match decode stats c with
              | Decode.Decoded p -> Some p
              | Decode.Skipped _ -> next_packet ())
          | Reader.Truncated ->
              count_cut stats;
              finished := true;
              None
          | Reader.End ->
              finished := true;
              None
      in
      f next_packet)

let export trace path =
  let oc =
    try open_out_bin path
    with Sys_error m -> raise (Format_error m)
  in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () ->
      let w = Pcap.create_writer oc in
      Gen.iter
        (fun p ->
          Pcap.write_record w ~ts:(Newton_packet.Packet.ts p) (Encode.frame p))
        trace;
      Pcap.flush_writer w)

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

let info path =
  with_file path (fun ic ->
      let c = open_cursor ic in
      let stats = Stats.create () in
      let first_ts = ref None and last_ts = ref None in
      let clean_end =
        iter_results stats c (fun _ ->
            let ts = c.frame.Reader.ts in
            if !first_ts = None then first_ts := Some ts;
            last_ts := Some ts)
      in
      let format, interfaces, linktype, nsec, big_endian, snaplen =
        match c.reader with
        | Cpcap h ->
            ( Pcap_format, 1, h.Pcap.linktype, Some h.Pcap.nsec,
              Some h.Pcap.big_endian, h.Pcap.snaplen )
        | Cng r -> (Pcapng_format, Pcapng.num_interfaces r, -1, None, None, -1)
      in
      {
        format;
        frames = Stats.get stats Stats.Ingest_frames;
        decoded = Stats.get stats Stats.Ingest_decoded;
        non_ip = Stats.get stats Stats.Ingest_non_ip;
        truncated = Stats.get stats Stats.Ingest_truncated;
        fragment = Stats.get stats Stats.Ingest_fragment;
        malformed = Stats.get stats Stats.Ingest_malformed;
        clean_end;
        interfaces;
        linktype;
        nsec;
        big_endian;
        snaplen;
        first_ts = !first_ts;
        last_ts = !last_ts;
      })
