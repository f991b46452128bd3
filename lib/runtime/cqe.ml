(** Cross-switch query execution (§5.1).

    Runs a packet through the Newton engines along its forwarding path.
    Between consecutive Newton-enabled switches, the execution context is
    snapshotted into the 12-byte SP header ([newton_fin]) and restored by
    the next switch's parser; the last switch strips the header before
    the packet reaches the destination host.  The byte counters expose
    the <1 % bandwidth overhead claim (§5.1). *)

open Newton_packet

type stats = {
  mutable sp_bytes : int;        (** SP header bytes added on the wire *)
  mutable packets : int;
  mutable wire_bytes : int;      (** raw packet bytes, for the ratio *)
}

let create_stats () = { sp_bytes = 0; packets = 0; wire_bytes = 0 }

let overhead_ratio s =
  if s.wire_bytes = 0 then 0.0 else float_of_int s.sp_bytes /. float_of_int s.wire_bytes

(** Process a packet along [engines] (path order).  Each engine hosts a
    slice of the same query deployment; the context flows through the SP
    header.  [stats] (optional) accumulates bandwidth accounting. *)
let process_path ?stats engines pkt =
  let nengines = List.length engines in
  (match stats with
  | Some s ->
      s.packets <- s.packets + 1;
      s.wire_bytes <- s.wire_bytes + Packet.get pkt Field.Pkt_len
  | None -> ());
  (* Per-instance uid -> context carried along the path. Instances are
     matched across switches by the controller-assigned uid. *)
  let ctxs : (int, Ctx.t) Hashtbl.t = Hashtbl.create 4 in
  List.iteri
    (fun hop engine ->
      Engine.record_packet_seen engine;
      Newton_telemetry.Stats.bump (Engine.sink engine)
        Newton_telemetry.Stats.Cqe_hops 1;
      Engine.maybe_roll_window engine (Packet.ts pkt);
      List.iter
        (fun inst ->
          let uid = Engine.instance_uid inst in
          let ctx =
            match Hashtbl.find_opt ctxs uid with
            | Some c -> c
            | None -> Ctx.create ()
          in
          if not ctx.Ctx.stopped then begin
            (* Parser: restore the SP header, i.e. apply its field
               widths to the carried context. *)
            if hop > 0 then Ctx.apply_sp_widths ctx;
            let ctx' = Engine.process_instance engine inst ~ctx pkt in
            Hashtbl.replace ctxs uid ctx'
          end)
        (Engine.instances engine);
      (* newton_fin: snapshot for the next hop (not after the last). *)
      if hop < nengines - 1 then begin
        Newton_telemetry.Stats.bump (Engine.sink engine)
          Newton_telemetry.Stats.Sp_header_bytes Sp_header.size_bytes;
        match stats with
        | Some s -> s.sp_bytes <- s.sp_bytes + Sp_header.size_bytes
        | None -> ()
      end)
    engines
