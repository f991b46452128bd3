(** pcapng (pcap next generation) reader.

    Supports what real captures are made of: Section Header Blocks (the
    byte-order magic sets per-section endianness; multiple sections may
    follow each other), Interface Description Blocks (several per
    section, each with its own link type and [if_tsresol]), Enhanced
    Packet Blocks, and Simple Packet Blocks.  Every other block type is
    skipped by its declared length.  Writing pcapng is out of scope —
    the {!Pcap} writer is the export path.  Blocks are parsed where
    they sit in the {!Reader} block buffer; packet data is never copied
    out of it. *)

let error = Reader.error

let shb_type = 0x0A0D0D0A
let idb_type = 0x00000001
let spb_type = 0x00000003
let epb_type = 0x00000006
let byte_order_magic = 0x1A2B3C4D

(* A block total beyond any sane capture means a corrupt length field;
   reading it in would turn a malformed file into a multi-gigabyte
   buffer.  Same cap as the classic-pcap reader's caplen guard. *)
let max_block_len = 0x4000000

type interface = {
  if_linktype : int;
  if_snaplen : int;
  units_per_sec : float;  (** timestamp units per second *)
}

type reader = {
  rd : Reader.t;
  mutable be : bool;                  (** current section's byte order *)
  mutable interfaces : interface list;  (** reverse IDB order *)
  mutable n_interfaces : int;
}

let get_u32 ~be b off =
  let v =
    if be then Int32.to_int (Bytes.get_int32_be b off)
    else Int32.to_int (Bytes.get_int32_le b off)
  in
  v land 0xFFFFFFFF

let get_u16 ~be b off =
  if be then Bytes.get_uint16_be b off else Bytes.get_uint16_le b off

(* [if_tsresol] option value: MSB clear = powers of 10, set = powers
   of 2; at most 2^63-safe magnitudes matter, so compute in float. *)
let units_of_tsresol v =
  if v land 0x80 = 0 then 10.0 ** float_of_int (v land 0x7F)
  else 2.0 ** float_of_int (v land 0x7F)

let default_interface_units = 1e6 (* if_tsresol defaults to 6 *)

(* Block bodies are views [b] from [off], [len] long, in the reader's
   buffer: every bound is relative to [off + len]. *)

(* Scan IDB options, from [opt], for if_tsresol (code 9). *)
let tsresol_of_options ~be b opt lim =
  let rec go off =
    if off + 4 > lim then default_interface_units
    else
      let code = get_u16 ~be b off and olen = get_u16 ~be b (off + 2) in
      if code = 0 then default_interface_units
      else if code = 9 && olen >= 1 && off + 4 < lim then
        units_of_tsresol (Char.code (Bytes.get b (off + 4)))
      else go (off + 4 + ((olen + 3) land lnot 3))
  in
  go opt

let parse_shb r b off len =
  (* The byte-order magic decides how the rest of the section reads. *)
  if len < 4 then error "pcapng SHB too short";
  let bom_le = get_u32 ~be:false b off in
  let bom_be = get_u32 ~be:true b off in
  if bom_le = byte_order_magic then r.be <- false
  else if bom_be = byte_order_magic then r.be <- true
  else error "bad pcapng byte-order magic 0x%08x" bom_le;
  if len >= 8 then begin
    let major = get_u16 ~be:r.be b (off + 4) in
    if major <> 1 then error "unsupported pcapng version %d" major
  end;
  (* A new section starts a fresh interface table. *)
  r.interfaces <- [];
  r.n_interfaces <- 0

let parse_idb r b off len =
  if len < 8 then error "pcapng IDB too short";
  let be = r.be in
  let iface =
    {
      if_linktype = get_u16 ~be b off;
      if_snaplen = get_u32 ~be b (off + 4);
      units_per_sec = tsresol_of_options ~be b (off + 8) (off + len);
    }
  in
  r.interfaces <- iface :: r.interfaces;
  r.n_interfaces <- r.n_interfaces + 1

let interface r id =
  if id < 0 || id >= r.n_interfaces then
    error "pcapng packet references unknown interface %d" id;
  List.nth r.interfaces (r.n_interfaces - 1 - id)

let parse_epb r b off len (f : Reader.frame) =
  if len < 20 then error "pcapng EPB too short";
  let be = r.be in
  let iface = interface r (get_u32 ~be b off) in
  let hi = get_u32 ~be b (off + 4) and lo = get_u32 ~be b (off + 8) in
  let caplen = get_u32 ~be b (off + 12) in
  if caplen > len - 20 then error "pcapng EPB data overruns block";
  f.ts <-
    ((float_of_int hi *. 4294967296.0) +. float_of_int lo)
    /. iface.units_per_sec;
  f.off <- off + 20;
  f.len <- caplen;
  f.orig_len <- get_u32 ~be b (off + 16);
  f.linktype <- iface.if_linktype

let parse_spb r b off len (f : Reader.frame) =
  if len < 4 then error "pcapng SPB too short";
  if r.n_interfaces = 0 then error "pcapng SPB before any interface block";
  let iface = interface r 0 in
  let orig_len = get_u32 ~be:r.be b off in
  (* if_snaplen 0 means "no limit" per the pcapng spec, not zero bytes. *)
  let limit = if iface.if_snaplen = 0 then max_int else iface.if_snaplen in
  f.ts <- 0.0;
  f.off <- off + 4;
  f.len <- Int.min orig_len (Int.min limit (len - 4));
  f.orig_len <- orig_len;
  f.linktype <- iface.if_linktype

(* A section header's length, read before its byte order is known:
   take whichever order is plausible. *)
let shb_total b off =
  let len_le = get_u32 ~be:false b off in
  let len_be = get_u32 ~be:true b off in
  let total =
    if len_le >= 28 && len_le land 3 = 0 && len_le <= 0x10000 then len_le
    else len_be
  in
  if total < 28 || total land 3 <> 0 || total > max_block_len then
    error "bad pcapng section header length";
  total

let create_reader rd =
  if not (Reader.ensure rd 4) then error "truncated pcapng header";
  if get_u32 ~be:false (Reader.buffer rd) (Reader.pos rd) <> shb_type then
    error "not a pcapng file (no section header)";
  if not (Reader.ensure rd 8) then error "truncated pcapng section header";
  let total = shb_total (Reader.buffer rd) (Reader.pos rd + 4) in
  if not (Reader.ensure rd total) then error "truncated pcapng section header";
  let r = { rd; be = false; interfaces = []; n_interfaces = 0 } in
  parse_shb r (Reader.buffer rd) (Reader.pos rd + 8) (total - 12);
  Reader.advance rd total;
  r

(** Step onto the next packet record, skipping non-packet blocks;
    [Truncated] when the file ends inside a block. *)
let rec read_record r f =
  let rd = r.rd in
  if not (Reader.ensure rd 8) then Reader.cut rd
  else
    let b = Reader.buffer rd and o = Reader.pos rd in
    (* A following section may flip byte order; the SHB type word is
       palindromic so it reads the same either way. *)
    let is_shb = get_u32 ~be:false b o = shb_type in
    let btype = get_u32 ~be:r.be b o in
    let total =
      if is_shb then shb_total b (o + 4)
      else
        let total = get_u32 ~be:r.be b (o + 4) in
        if total < 12 || total land 3 <> 0 || total > max_block_len then
          error "bad pcapng block length";
        total
    in
    if not (Reader.ensure rd total) then Reader.Truncated
    else begin
      (* [ensure] may have moved the block: its body starts 8 bytes
         past [pos], and the trailing length word is not part of it. *)
      let b = Reader.buffer rd and body = Reader.pos rd + 8 in
      let len = total - 12 in
      Reader.advance rd total;
      if is_shb then begin
        parse_shb r b body len;
        read_record r f
      end
      else if btype = idb_type then begin
        parse_idb r b body len;
        read_record r f
      end
      else if btype = epb_type then begin
        parse_epb r b body len f;
        Reader.Frame
      end
      else if btype = spb_type then begin
        parse_spb r b body len f;
        Reader.Frame
      end
      else read_record r f (* statistics, name resolution, ... *)
    end

let num_interfaces r = r.n_interfaces
