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
    arena is observationally [Engine.process_packet] over its packets. *)

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

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_partition_exact; prop_flat_roundtrip; prop_hash5 ]
  @ [
      Alcotest.test_case "per-packet driver vs arena driver, every query" `Quick
        test_driver_differential;
    ]
