(** Classic pcap (libpcap "savefile") reader and writer.

    The reader accepts all four magic variants — native or swapped byte
    order, microsecond or nanosecond timestamp resolution — and steps
    through records in a {!Reader} block buffer, so neither the file
    nor any record is copied out.  The writer emits one form only:
    little-endian, nanosecond resolution, Ethernet link type, so
    sub-microsecond synthetic timestamps survive the round trip.

    A record's [ts] is seconds as a float ([ts_sec + subsec / resol]).
    Timestamps below ~2^22 seconds (≈48 days — any trace-relative
    clock) round-trip bit-exactly through the nanosecond writer; epoch
    timestamps keep ~0.1 µs of float precision, well inside the 100 ms
    windows the queries use. *)

let error = Reader.error

(* Magic numbers as written by a little-endian producer. *)
let magic_usec = 0xA1B2C3D4
let magic_nsec = 0xA1B23C4D

let linktype_ethernet = 1

type header = {
  big_endian : bool;  (** file byte order is big-endian *)
  nsec : bool;        (** sub-second field is nanoseconds *)
  snaplen : int;
  linktype : int;
}

(* ---------------- reading ---------------- *)

let get_u32 ~be b off =
  let v =
    if be then Int32.to_int (Bytes.get_int32_be b off)
    else Int32.to_int (Bytes.get_int32_le b off)
  in
  v land 0xFFFFFFFF

let get_u16 ~be b off =
  if be then Bytes.get_uint16_be b off else Bytes.get_uint16_le b off

let read_header r =
  if not (Reader.ensure r 24) then error "truncated pcap global header";
  let b = Reader.buffer r and o = Reader.pos r in
  let raw_le = get_u32 ~be:false b o in
  let raw_be = get_u32 ~be:true b o in
  let big_endian, nsec =
    if raw_le = magic_usec then (false, false)
    else if raw_le = magic_nsec then (false, true)
    else if raw_be = magic_usec then (true, false)
    else if raw_be = magic_nsec then (true, true)
    else error "bad pcap magic 0x%08x" raw_le
  in
  let be = big_endian in
  let major = get_u16 ~be b (o + 4) and minor = get_u16 ~be b (o + 6) in
  if major <> 2 then error "unsupported pcap version %d.%d" major minor;
  let h =
    { big_endian; nsec; snaplen = get_u32 ~be b (o + 16);
      linktype = get_u32 ~be b (o + 20) }
  in
  Reader.advance r 24;
  h

(* A caplen beyond any sane snapshot means a corrupt length field;
   reading it as data would chase garbage across the file. *)
let max_caplen = 0x4000000

(** Step onto the next record, parsing its header in the reader's
    buffer.  A file that ends in the middle of a record (a cut-short
    capture) is [Truncated] so the caller can count it as a skip
    instead of crashing. *)
let read_record header r (f : Reader.frame) =
  if not (Reader.ensure r 16) then Reader.cut r
  else
    let be = header.big_endian in
    let b = Reader.buffer r and o = Reader.pos r in
    let caplen = get_u32 ~be b (o + 8) in
    if caplen > max_caplen || not (Reader.ensure r (16 + caplen)) then
      Reader.Truncated
    else begin
      (* [ensure] may have moved the record: read it from [pos] again. *)
      let b = Reader.buffer r and o = Reader.pos r in
      let sec = get_u32 ~be b o and sub = get_u32 ~be b (o + 4) in
      let resol = if header.nsec then 1e9 else 1e6 in
      f.ts <- float_of_int sec +. (float_of_int sub /. resol);
      f.off <- o + 16;
      f.len <- caplen;
      f.orig_len <- get_u32 ~be b (o + 12);
      f.linktype <- header.linktype;
      Reader.advance r (16 + caplen);
      Reader.Frame
    end

(* ---------------- writing ---------------- *)

type writer = {
  oc : out_channel;
  buf : Buffer.t;
}

let add_u32 buf v = Buffer.add_int32_le buf (Int32.of_int (v land 0xFFFFFFFF))

(** Split float seconds into (sec, nanoseconds), carrying rounded-up
    nanoseconds into the seconds field. *)
let split_ts ts =
  let resol = 1_000_000_000 in
  let sec = int_of_float (Float.floor ts) in
  let sub =
    int_of_float (Float.round ((ts -. Float.floor ts) *. float_of_int resol))
  in
  if sub >= resol then (sec + 1, 0) else (sec, sub)

let create_writer oc =
  let buf = Buffer.create 24 in
  add_u32 buf magic_nsec;
  Buffer.add_uint16_le buf 2;
  Buffer.add_uint16_le buf 4;
  add_u32 buf 0 (* thiszone *);
  add_u32 buf 0 (* sigfigs *);
  add_u32 buf 0xFFFF (* snaplen *);
  add_u32 buf linktype_ethernet;
  Buffer.output_buffer oc buf;
  Buffer.clear buf;
  { oc; buf }

let write_record w ~ts ?orig_len data =
  let sec, sub = split_ts ts in
  if sec < 0 then error "pcap cannot encode negative timestamp %g" ts;
  let caplen = Bytes.length data in
  add_u32 w.buf sec;
  add_u32 w.buf sub;
  add_u32 w.buf caplen;
  add_u32 w.buf (Option.value orig_len ~default:caplen);
  Buffer.add_bytes w.buf data;
  if Buffer.length w.buf > 1 lsl 20 then begin
    Buffer.output_buffer w.oc w.buf;
    Buffer.clear w.buf
  end

let flush_writer w =
  Buffer.output_buffer w.oc w.buf;
  Buffer.clear w.buf;
  flush w.oc
