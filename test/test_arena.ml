(** Properties of the pre-sharded replay arenas.

    The arena builder ({!Newton_runtime.Arena}) and the flat packet
    representation ({!Newton_packet.Flat}) carry the parallel replay
    hot path, so their two contracts are checked exhaustively over
    random packet streams:

    - {e exact partition}: [Arena.build] places every input packet in
      exactly one shard arena — no duplicates, no drops — and within a
      shard, arena order is stream order;
    - {e lossless representation}: a [Packet.t] survives the
      record→arena→record round trip field-for-field, timestamp
      included.

    Plus the supporting equivalences: the flow 5-tuple hash fast path
    equals the generic vector hash, and [Engine.process_flat] over an
    arena is observationally [Engine.process_packet] over its packets.
    A packet is a one-row arena ([Flat.of_packet], no copy), and both
    per-packet drivers ([Engine.process_packet], [Deploy.process_packet])
    read it in place and leave its bytes as they were. *)

open Newton_packet
open Newton_runtime

(* ---------------- random packet streams ---------------- *)

(* Random values per field, masked to the field's width by Packet.set;
   a small value pool makes shard collisions (several packets of one
   flow) likely, which is what the order property needs to bite. *)
let gen_packet =
  QCheck.Gen.(
    let* ts = float_bound_inclusive 2.0 in
    let* fields =
      array_size (return Field.count) (int_bound ((1 lsl 30) - 1))
    in
    return
      (let p = Packet.create ~ts () in
       List.iter
         (fun f -> Packet.set p f (fields.(Field.index f) land 0xff))
         Field.all;
       p))

let gen_packets = QCheck.Gen.(array_size (int_bound 400) gen_packet)

let arb_packets =
  QCheck.make
    ~print:(fun ps -> Printf.sprintf "<%d packets>" (Array.length ps))
    gen_packets

let packet_equal a b =
  Packet.ts a = Packet.ts b
  && List.for_all (fun f -> Packet.get a f = Packet.get b f) Field.all

(* A packet's identity within a stream: its position.  The partition
   property compares positions, not field values, so duplicate packets
   cannot mask a drop-plus-double-count. *)
let positions_by_shard sharder packets =
  let jobs = Shard.jobs sharder in
  let by_shard = Array.make jobs [] in
  Array.iteri
    (fun i p ->
      let s = Shard.assign sharder p in
      by_shard.(s) <- i :: by_shard.(s))
    packets;
  Array.map List.rev by_shard

(* ---------------- properties ---------------- *)

let prop_partition_exact =
  QCheck.Test.make ~count:100 ~name:"arena build partitions exactly, in order"
    (QCheck.pair arb_packets (QCheck.int_range 1 8))
    (fun (packets, jobs) ->
      let sharder = Shard.make ~jobs Shard.Flow in
      let arenas = Arena.build sharder packets in
      Array.length arenas = jobs
      && Arena.total_packets arenas = Array.length packets
      && Array.for_all2
           (fun arena expected ->
             (* Shard arena = exactly the stream's packets assigned to
                this shard, in stream order, field-for-field. *)
             Flat.length arena = List.length expected
             && List.for_all2
                  (fun slot pos ->
                    packet_equal (Flat.to_packet arena slot) packets.(pos))
                  (List.init (Flat.length arena) Fun.id)
                  expected)
           arenas
           (positions_by_shard sharder packets))

let prop_flat_roundtrip =
  QCheck.Test.make ~count:200 ~name:"flat arena round-trips packets exactly"
    arb_packets (fun packets ->
      let flat = Flat.of_packets packets in
      Flat.length flat = Array.length packets
      && Array.for_all2 packet_equal (Flat.to_packets flat) packets
      && Array.for_all
           (fun i ->
             Flat.ts flat i = Packet.ts packets.(i)
             && List.for_all
                  (fun f -> Flat.get flat i f = Packet.get packets.(i) f)
                  Field.all)
           (Array.init (Array.length packets) Fun.id))

let prop_hash5 =
  QCheck.Test.make ~count:500 ~name:"hash5 equals hash_vector on 5-tuples"
    QCheck.(
      pair (int_range 0 1000)
        (list_of_size (QCheck.Gen.return 5) (int_range 0 ((1 lsl 32) - 1))))
    (fun (seed, keys) ->
      match keys with
      | [ a; b; c; d; e ] ->
          Newton_sketch.Hash.hash5 ~seed a b c d e
          = Newton_sketch.Hash.hash_vector ~seed (Array.of_list keys)
      | _ -> false)

(* ---------------- driver differential ---------------- *)

(* Arena replay vs per-packet replay of the same attack trace, for
   every catalog query (Q1-Q17): same reports (order and payload), same
   register contents, same telemetry counters, same packet count.  The
   sharded variants of this differential live in test_parallel.ml; this
   one pins the single-engine contract of [process_flat] itself. *)
let test_driver_differential () =
  let trace =
    Newton_trace.Gen.generate ~attacks:Newton_trace.Attack.default_suite
      ~seed:11
      (Newton_trace.Profile.with_flows Newton_trace.Profile.caida_like 500)
  in
  let packets = Newton_trace.Gen.packets trace in
  let arena = Arena.build1 packets in
  let show r = Newton_query.Report.to_string r in
  let contents e =
    List.concat_map
      (fun inst ->
        List.map
          (fun (key, arr) ->
            (key, Newton_sketch.Register_array.fold (fun acc v -> v :: acc) [] arr))
          (Engine.instance_arrays inst))
      (Engine.instances e)
  in
  let counters e =
    List.map
      (fun k ->
        let open Newton_telemetry in
        (Printf.sprintf "%d:%s" (Stats.index k) (Stats.name k), Stats.get (Engine.sink e) k))
      Newton_telemetry.Stats.all
  in
  List.iter
    (fun q ->
      let compiled =
        Newton_compiler.Compose.compile
          ~options:
            { Newton_compiler.Decompose.default_options with registers = 65536 }
          q
      in
      let per_packet = Engine.create ~switch_id:0 () in
      let flat_e = Engine.create ~switch_id:0 () in
      ignore (Engine.install per_packet compiled);
      ignore (Engine.install flat_e compiled);
      Array.iter (Engine.process_packet per_packet) packets;
      Engine.process_flat flat_e arena;
      let label what = Printf.sprintf "%s: %s" q.Newton_query.Ast.name what in
      Alcotest.(check int)
        (label "packets seen")
        (Engine.packets_seen per_packet) (Engine.packets_seen flat_e);
      Alcotest.(check (list string))
        (label "report streams identical")
        (List.map show (Engine.reports per_packet))
        (List.map show (Engine.reports flat_e));
      Alcotest.(check bool)
        (label "register contents identical") true
        (contents per_packet = contents flat_e);
      Alcotest.(check (list (pair string int)))
        (label "counters identical") (counters per_packet) (counters flat_e))
    (Newton_query.Catalog.all () @ Newton_query.Catalog.extras ())

(* ---------------- packets read in place ---------------- *)

(* A packet is a one-row arena: [Flat.of_packet] shares the packet's
   block, so the arena sees the packet's fields and timestamp bits as
   they are (-0.0 and NaN included) and follows every later write. *)
let test_of_packet_shares () =
  List.iter
    (fun ts ->
      let p = Packet.make ~ts ~src_ip:0xC0A80001 ~dst_port:443 ~tun_id:0xFFFFFF () in
      let words = Gc.minor_words () in
      let row = Flat.of_packet p in
      let allocated = Gc.minor_words () -. words in
      let bits = Int64.bits_of_float in
      Alcotest.(check (float 0.0)) "nothing allocated" 0.0 allocated;
      Alcotest.(check int) "one row" 1 (Flat.length row);
      Alcotest.(check int) "a row is a packet block" Packet.size (Flat.bytes row);
      Alcotest.(check int64) "timestamp bits" (bits ts) (bits (Flat.ts row 0));
      List.iter
        (fun f ->
          Alcotest.(check int) (Field.to_string f) (Packet.get p f) (Flat.get row 0 f))
        Field.all;
      Packet.set p Field.Dst_port 53;
      Alcotest.(check int) "a write to the packet shows in the row" 53
        (Flat.get row 0 Field.Dst_port))
    [ 0.0; -0.0; Float.nan; 1.5 ]

let trace_packets ~seed ~flows =
  Newton_trace.Gen.packets
    (Newton_trace.Gen.generate ~attacks:Newton_trace.Attack.extended_suite ~seed
       (Newton_trace.Profile.with_flows Newton_trace.Profile.caida_like flows))

let catalog () = Newton_query.Catalog.all () @ Newton_query.Catalog.extras ()

(* Run [f] on every packet and fail unless it left the packet's bytes
   as they were. *)
let check_untouched label packets f =
  Array.iteri
    (fun i p ->
      let before = Packet.copy p in
      f p;
      if not (p = before) then
        Alcotest.failf "%s: packet %d changed: %s -> %s" label i
          (Packet.to_string before) (Packet.to_string p))
    packets

(* Every catalog intent, one engine each; the report path must run
   too, so the intents together must report. *)
let test_engine_leaves_packets () =
  let packets = trace_packets ~seed:11 ~flows:500 in
  let reports =
    List.fold_left
      (fun n q ->
        let e = Engine.create ~switch_id:0 () in
        ignore (Engine.install e (Newton_compiler.Compose.compile q));
        check_untouched q.Newton_query.Ast.name packets (Engine.process_packet e);
        n + Engine.report_count e)
      0 (catalog ())
  in
  Alcotest.(check bool) "reports" true (reports > 0)

(* Each intent alone on linear:4 in CQE mode, two stages per switch, so
   slices span switches and SP restores happen. *)
let test_deploy_leaves_packets () =
  let module Deploy = Newton_controller.Deploy in
  let module Topo = Newton_network.Topo in
  let packets = trace_packets ~seed:12 ~flows:300 in
  let messages =
    List.fold_left
      (fun n q ->
        let d = Deploy.create (Topo.linear 4) in
        (match
           Deploy.deploy_checked ~mode:`Cqe ~stages_per_switch:2 d
             (Newton_compiler.Compose.compile q)
         with
        | Ok _ -> ()
        | Error _ -> Alcotest.failf "%s refused" q.Newton_query.Ast.name);
        let host pkt f = Topo.host_of_ip (Deploy.topo d) (Packet.get pkt f) in
        check_untouched q.Newton_query.Ast.name packets (fun p ->
            Deploy.process_packet d ~src_host:(host p Field.Src_ip)
              ~dst_host:(host p Field.Dst_ip) p);
        n + Deploy.message_count d)
      0 (catalog ())
  in
  Alcotest.(check bool) "reports" true (messages > 0)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_partition_exact; prop_flat_roundtrip; prop_hash5 ]
  @ [
      Alcotest.test_case "per-packet driver vs arena driver, every query" `Quick
        test_driver_differential;
      Alcotest.test_case "a packet is a one-row arena, not a copy" `Quick
        test_of_packet_shares;
      Alcotest.test_case "engine reads every packet in place, writes none" `Quick
        test_engine_leaves_packets;
      Alcotest.test_case "CQE walk reads every packet in place, writes none" `Quick
        test_deploy_leaves_packets;
    ]
