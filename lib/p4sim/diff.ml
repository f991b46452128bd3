(** Differential harness: the same trace through the simulator engine
    and the interpreted P4 pipeline, asserting report identity.

    For one query it compiles once, installs on both targets, turns
    each packet into the Ethernet frame a capture export writes
    ({!Newton_ingest.Encode.frame}), replays it through
    {!Newton_runtime.Engine.process_packet} and {!Interp.run}, decodes
    the interpreter's digests into {!Newton_query.Report} values, and
    compares the two report multisets.  This is the repo's ground-truth
    check that emission + rule generation preserve engine semantics —
    any divergence in hashing, window rolls, guard evaluation, branch
    recirculation or report dedup shows up as a report mismatch.

    Mirrored engine semantics the harness re-implements deliberately
    (see engine.ml):
    - a packet rolls the instance's window only if it matches one of
      the compiled [init_entries] (all branches, empty-slot ones too);
    - window rolls clear sketch state *and* report-dedup memory;
    - report dedup is first-occurrence-wins on (window, key vector);
    - [value2] is exported only for [Pair]-combined queries.

    Packets with no frame the emitted parser reads back faithfully
    (see {!wire}) are skipped on *both* sides (the comparison stays
    apples-to-apples); the skip counts are part of the result so tests
    can assert full coverage on curated corpora. *)

open Newton_packet
open Newton_query

type skip = No_faithful_frame | Outside_parser

let skip_to_string = function
  | No_faithful_frame -> "no faithful frame"
  | Outside_parser -> "outside the emitted parser"

(* The headers newton.p4 cannot parse although Decode can: no inner
   IPv6, DNS or non-L4 state under a tunnel (for a tunneled non-L4
   packet the normalizer would keep the outer UDP length as
   payload_len), and each IP version selects only its own ICMP. *)
let outside_parser pkt =
  let g = Packet.get pkt in
  let proto = g Field.Proto and v6 = g Field.Ip_ver = 6 in
  if g Field.Tun_id <> 0 then
    v6
    || g Field.Dns_qr <> 0
    || g Field.Dns_ancount <> 0
    || not
         (proto = Field.Protocol.tcp || proto = Field.Protocol.udp
        || proto = Field.Protocol.icmp)
  else if v6 then proto = Field.Protocol.icmp
  else proto = Field.Protocol.icmpv6

let wire pkt =
  let frame = Newton_ingest.Encode.frame pkt in
  match Newton_ingest.Decode.frame ~ts:(Packet.ts pkt) frame with
  | Newton_ingest.Decode.Decoded back
    when List.for_all (fun f -> Packet.get back f = Packet.get pkt f) Field.all
    ->
      if outside_parser pkt then Error Outside_parser
      else Ok (Bytes.unsafe_to_string frame)
  | _ -> Error No_faithful_frame

type outcome = {
  query_id : int;
  total : int;  (** packets offered *)
  replayed : int;  (** packets run on both targets *)
  skipped : int;  (** packets {!wire} skips *)
  skip_reasons : (string * int) list;
  engine_reports : Report.t list;
  p4_reports : Report.t list;
}

let sorted reports = List.sort Report.compare reports

let matched r =
  let a = sorted r.engine_reports and b = sorted r.p4_reports in
  List.length a = List.length b
  && List.for_all2 (fun x y -> Report.compare x y = 0) a b

(* First report present in exactly one sorted multiset, if any. *)
let first_disagreement r =
  let rec go a b =
    match a, b with
    | [], [] -> None
    | x :: _, [] -> Some (`Engine_only x)
    | [], y :: _ -> Some (`P4_only y)
    | x :: a', y :: b' ->
        let c = Report.compare x y in
        if c = 0 then go a' b'
        else if c < 0 then Some (`Engine_only x)
        else Some (`P4_only y)
  in
  go (sorted r.engine_reports) (sorted r.p4_reports)

let report_to_string (r : Report.t) =
  Printf.sprintf "q%d w%d keys[%s] value %d%s" r.query_id r.window
    (String.concat ";" (Array.to_list (Array.map string_of_int r.keys)))
    r.value
    (match r.value2 with Some v -> Printf.sprintf " value2 %d" v | None -> "")

let describe r =
  let head =
    Printf.sprintf "q%d: %d/%d packets replayed (%d skipped), %d vs %d reports"
      r.query_id r.replayed r.total r.skipped
      (List.length r.engine_reports)
      (List.length r.p4_reports)
  in
  if matched r then head ^ " — identical"
  else
    match first_disagreement r with
    | Some (`Engine_only rep) ->
        Printf.sprintf "%s — engine-only report: %s" head (report_to_string rep)
    | Some (`P4_only rep) ->
        Printf.sprintf "%s — p4-only report: %s" head (report_to_string rep)
    | None -> head ^ " — multiset mismatch"

(* ---------------- digest decoding ---------------- *)

(* Digest layout (newton_report_t, positional): class_id, desc,
   eighteen key copies in Field.index order, g1, g2. *)
let decode_digest ~pair ~window (d : int array) =
  let nfields = List.length Field.all in
  if Array.length d <> 2 + nfields + 2 then
    invalid_arg
      (Printf.sprintf "digest has %d fields, expected %d" (Array.length d)
         (4 + nfields));
  let desc = d.(1) in
  let keys =
    let rec go pos acc =
      if pos >= Newton_p4gen.Emit.desc_positions then List.rev acc
      else
        let code = (desc lsr (5 * pos)) land 0x1F in
        if code = 0 then List.rev acc else go (pos + 1) (d.(1 + code) :: acc)
    in
    Array.of_list (go 0 [])
  in
  let g1 = d.(2 + nfields) and g2 = d.(3 + nfields) in
  ( keys,
    fun ~query_id ->
      Report.make
        ~value2:(if pair then Some g2 else None)
        ~query_id ~window ~keys ~value:g1 () )

(* ---------------- the harness ---------------- *)

let init_entry_matches pkt (ie : Newton_compiler.Ir.init_entry) =
  List.for_all
    (fun (f, v, m) -> Packet.get pkt f land m = v)
    ie.Newton_compiler.Ir.ie_matches

let run_query ?class_id ?(layout = Newton_p4gen.Emit.default_layout) compiled
    packets =
  let query = compiled.Newton_compiler.Compose.query in
  match Newton_p4gen.Rules.entries ?class_id ~layout compiled with
  | Error issue -> Error issue
  | Ok rules ->
      (* engine target *)
      let engine =
        Newton_runtime.Engine.create ~sink:Newton_telemetry.Stats.null
          ~switch_id:0 ()
      in
      let _uid = Newton_runtime.Engine.install engine compiled in
      (* interpreted-P4 target *)
      let interp =
        Interp.create (P4parse.parse (Newton_p4gen.Emit.program ~layout ()))
      in
      Interp.install interp rules;
      let pair =
        match query.Ast.combine with
        | Some { Ast.op = Ast.Pair; _ } -> true
        | _ -> false
      in
      let window = ref 0 in
      let seen = Hashtbl.create 256 in  (* (window, keys) dedup *)
      let p4_reports = ref [] in
      let skips = Hashtbl.create 8 in
      let total = ref 0 and replayed = ref 0 and skipped = ref 0 in
      List.iter
        (fun pkt ->
          incr total;
          match wire pkt with
          | Error why ->
              incr skipped;
              let key = skip_to_string why in
              Hashtbl.replace skips key
                (1 + Option.value (Hashtbl.find_opt skips key) ~default:0)
          | Ok bytes ->
              incr replayed;
              (* the engine rolls an instance's window only when the
                 packet classifies into it; mirror that gate *)
              if
                Array.exists (init_entry_matches pkt)
                  compiled.Newton_compiler.Compose.init_entries
              then begin
                let w = int_of_float (Packet.ts pkt /. query.Ast.window) in
                if w <> !window then begin
                  window := w;
                  Interp.clear_state interp;
                  Hashtbl.reset seen
                end
              end;
              Newton_runtime.Engine.process_packet engine pkt;
              List.iter
                (fun digest ->
                  let keys, mk = decode_digest ~pair ~window:!window digest in
                  let dedup_key = (!window, Array.to_list keys) in
                  if not (Hashtbl.mem seen dedup_key) then begin
                    Hashtbl.replace seen dedup_key ();
                    p4_reports := mk ~query_id:query.Ast.id :: !p4_reports
                  end)
                (Interp.run interp
                   ~ingress_port:(Packet.get pkt Field.Ingress_port)
                   bytes))
        packets;
      Ok
        {
          query_id = query.Ast.id;
          total = !total;
          replayed = !replayed;
          skipped = !skipped;
          skip_reasons =
            List.sort compare
              (Hashtbl.fold (fun k v acc -> (k, v) :: acc) skips []);
          engine_reports = Newton_runtime.Engine.drain_reports engine;
          p4_reports = List.rev !p4_reports;
        }
