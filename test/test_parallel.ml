(** Tests for the sharded parallel replay engine: jobs=1 bit-identity
    against the sequential engine, per-query differential equivalence at
    4 shards, sketch-merge algebra, and shard-assignment invariants. *)

open Newton_packet
open Newton_query
open Newton_sketch
open Newton_runtime

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let compile = Newton_compiler.Compose.compile

let attack_trace ?(flows = 400) ?(seed = 7) () =
  Newton_trace.Gen.generate ~attacks:Newton_trace.Attack.default_suite ~seed
    (Newton_trace.Profile.with_flows Newton_trace.Profile.caida_like flows)

(* ---------------- jobs=1 bit-identity ---------------- *)

(* A single shard receives every packet in trace order, so the whole
   pipeline (partition, batches, merge) must collapse to the sequential
   engine exactly — reports equal element-for-element, order included. *)
let test_jobs1_bit_identical () =
  let trace = attack_trace () in
  let seq = Engine.create ~switch_id:0 () in
  let par = Parallel_engine.create ~jobs:1 ~batch:64 ~switch_id:0 () in
  List.iter
    (fun q ->
      let compiled = compile q in
      ignore (Engine.install seq compiled);
      ignore (Parallel_engine.install par compiled))
    (Catalog.all ());
  Newton_trace.Gen.iter (Engine.process_packet seq) trace;
  Parallel_engine.process_trace par trace;
  checki "packets seen" (Engine.packets_seen seq) (Parallel_engine.packets_seen par);
  let rs = Engine.reports seq and rp = Parallel_engine.reports par in
  checki "report count" (List.length rs) (List.length rp);
  checkb "reports bit-identical" true (rs = rp)

(* ---------------- differential: shard-merged vs sequential ---------------- *)

(* Branch_key sharding keeps every aggregate of a query on one shard,
   so shard-merged reports must match the sequential engine modulo
   sketch-collision noise (per-shard Bloom/CM banks see fewer keys).
   Wide register banks make that noise vanish, so the comparison is
   exact — identity and values. *)
let differential_options =
  { Newton_compiler.Decompose.default_options with registers = 65536 }

let run_differential q =
  let trace = attack_trace () in
  let compiled = compile ~options:differential_options q in
  let seq = Engine.create ~switch_id:0 () in
  ignore (Engine.install seq compiled);
  Newton_trace.Gen.iter (Engine.process_packet seq) trace;
  let par =
    Parallel_engine.create ~jobs:4 ~shard_key:(Shard.for_compiled compiled)
      ~switch_id:0 ()
  in
  ignore (Parallel_engine.install par compiled);
  Parallel_engine.process_trace par trace;
  (Engine.reports seq, Parallel_engine.reports par, par)

let test_differential_catalog () =
  List.iter
    (fun q ->
      let rs, rp, par = run_differential q in
      Alcotest.(check int)
        (Printf.sprintf "Q%d report count" q.Ast.id)
        (List.length rs) (List.length rp);
      checkb
        (Printf.sprintf "Q%d shard-merged = sequential" q.Ast.id)
        true
        (match Report.diff ~reference:rs ~measured:rp with
        | { missing = []; extra = []; changed = [] } -> true
        | _ -> false);
      (* every shard saw a slice, all packets accounted for *)
      let loads = Parallel_engine.shard_loads par in
      checki
        (Printf.sprintf "Q%d packets partitioned" q.Ast.id)
        (Parallel_engine.packets_seen par)
        (Array.fold_left ( + ) 0 loads))
    (Catalog.all ())

(* ---------------- merged state = sequential state ---------------- *)

(* Over a trace that fits in one window, ALU-merging the per-shard
   register banks must reproduce the sequential banks register for
   register (same hash seeds, associative/commutative ops). *)
let test_merged_state_matches_sequential () =
  let q = Catalog.by_id 3 in
  let q = { q with Ast.window = 1e9 } in
  let trace = attack_trace ~flows:200 () in
  (* wide banks: the sequential engine's fuller Bloom filter must not
     suppress chain continuations the per-shard filters allow *)
  let compiled = compile ~options:differential_options q in
  let seq = Engine.create ~switch_id:0 () in
  let uid_seq, _ = Engine.install seq compiled in
  Newton_trace.Gen.iter (Engine.process_packet seq) trace;
  let par =
    Parallel_engine.create ~jobs:4 ~shard_key:(Shard.for_compiled compiled)
      ~switch_id:0 ()
  in
  let uid_par, _ = Parallel_engine.install par compiled in
  Parallel_engine.process_trace par trace;
  let seq_inst = Option.get (Engine.find_instance seq uid_seq) in
  let merged = Option.get (Parallel_engine.merged_arrays par uid_par) in
  checkb "has state banks" true (merged <> []);
  List.iter
    (fun (key, arr) ->
      let seq_arr = Option.get (Engine.instance_array seq_inst key) in
      checki "bank size" (Register_array.size seq_arr) (Register_array.size arr);
      for i = 0 to Register_array.size arr - 1 do
        if Register_array.get arr i <> Register_array.get seq_arr i then
          Alcotest.failf "register %d differs: merged=%d sequential=%d" i
            (Register_array.get arr i)
            (Register_array.get seq_arr i)
      done)
    merged

(* ---------------- merge algebra (property) ---------------- *)

let random_bank rng size = Array.init size (fun _ -> Newton_util.Prng.int rng 1000)

let bank_of arr =
  let t = Register_array.create (Array.length arr) in
  Array.iteri (fun i v -> Register_array.set t i v) arr;
  t

let banks_equal a b =
  Register_array.size a = Register_array.size b
  && (let ok = ref true in
      for i = 0 to Register_array.size a - 1 do
        if Register_array.get a i <> Register_array.get b i then ok := false
      done;
      !ok)

let merge_ops = [ `Add; `Or; `Max ]

let test_merge_commutative () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"merge commutative" ~count:100
       QCheck.(pair small_int (small_int_corners ()))
       (fun (seed, opi) ->
         let rng = Newton_util.Prng.of_int seed in
         let op = List.nth merge_ops (abs opi mod 3) in
         let size = 1 + Newton_util.Prng.int rng 64 in
         let a = random_bank rng size and b = random_bank rng size in
         banks_equal
           (Register_array.merge ~op (bank_of a) (bank_of b))
           (Register_array.merge ~op (bank_of b) (bank_of a))))

let test_merge_associative () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"merge associative" ~count:100
       QCheck.(pair small_int (small_int_corners ()))
       (fun (seed, opi) ->
         let rng = Newton_util.Prng.of_int seed in
         let op = List.nth merge_ops (abs opi mod 3) in
         let size = 1 + Newton_util.Prng.int rng 64 in
         let a = random_bank rng size
         and b = random_bank rng size
         and c = random_bank rng size in
         banks_equal
           (Register_array.merge ~op
              (Register_array.merge ~op (bank_of a) (bank_of b))
              (bank_of c))
           (Register_array.merge ~op (bank_of a)
              (Register_array.merge ~op (bank_of b) (bank_of c)))))

(* Every merge op is the per-register stateful ALU update of the
   destination by the source register — the definition shard merging
   and [Engine.absorb_state] both rely on — on random arrays over the
   whole 32-bit cell domain, half of the values within 1000 of the cap,
   so [`Add] saturates as [Alu.Add] does. *)
let test_merge_is_alu_update () =
  let alu_of op v =
    match op with `Add -> Alu.Add v | `Or -> Alu.Or v | `Max -> Alu.Max v
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"merge = per-register ALU" ~count:200 QCheck.small_int
       (fun seed ->
         let rng = Newton_util.Prng.of_int seed in
         let size = 1 + Newton_util.Prng.int rng 64 in
         let value () =
           if Newton_util.Prng.bool rng then Newton_util.Prng.int rng (Alu.cell_max + 1)
           else Alu.cell_max - Newton_util.Prng.int rng 1000
         in
         let a = Array.init size (fun _ -> value ())
         and b = Array.init size (fun _ -> value ()) in
         List.for_all
           (fun op ->
             let want = Array.mapi (fun i v -> Alu.update (alu_of op b.(i)) v) a in
             banks_equal (bank_of want)
               (Register_array.merge ~op (bank_of a) (bank_of b)))
           merge_ops))

let test_merge_size_mismatch () =
  Alcotest.check_raises "size mismatch rejected"
    (Invalid_argument "Register_array.merge_into: size mismatch (4 vs 8)")
    (fun () ->
      ignore
        (Register_array.merge ~op:`Add (Register_array.create 4)
           (Register_array.create 8)))

(* ---------------- sketch merges ---------------- *)

let test_count_min_merge_sums () =
  let a = Count_min.create ~width:1024 ~depth:3 ~seed:21 in
  let b = Count_min.create ~width:1024 ~depth:3 ~seed:21 in
  ignore (Count_min.add a [| 7 |] 5);
  ignore (Count_min.add b [| 7 |] 3);
  ignore (Count_min.add b [| 9 |] 2);
  let m = Count_min.merge a b in
  checki "shared key sums" 8 (Count_min.estimate m [| 7 |]);
  checki "disjoint key kept" 2 (Count_min.estimate m [| 9 |]);
  checki "totals add" 10 (Count_min.total m)

(* ---------------- shard assignment ---------------- *)

let test_shard_flow_locality () =
  let sharder = Shard.make ~jobs:4 Shard.Flow in
  let trace = attack_trace ~flows:100 () in
  let by_flow = Hashtbl.create 256 in
  Newton_trace.Gen.iter
    (fun pkt ->
      let s = Shard.assign sharder pkt in
      checkb "shard in range" true (s >= 0 && s < 4);
      let flow = Fivetuple.of_packet pkt in
      match Hashtbl.find_opt by_flow flow with
      | None -> Hashtbl.add by_flow flow s
      | Some s' -> checki "flow stays on one shard" s' s)
    trace

let test_shard_branch_key_locality () =
  (* Q1 aggregates per dst IP: two packets sharing a dip must share a
     shard no matter which flow carried them. *)
  let compiled = compile (Catalog.q1 ()) in
  let sharder = Shard.make ~jobs:4 (Shard.for_compiled compiled) in
  let syn ~src ~sport ~dst =
    Packet.make ~ts:0.0 ~src_ip:src ~dst_ip:dst ~proto:6 ~src_port:sport
      ~dst_port:80 ~tcp_flags:Field.Tcp_flag.syn ()
  in
  for dst = 1 to 64 do
    let s1 = Shard.assign sharder (syn ~src:0x0A000001 ~sport:1234 ~dst) in
    let s2 = Shard.assign sharder (syn ~src:0x0A0000FF ~sport:4321 ~dst) in
    checkb "shard in range" true (s1 >= 0 && s1 < 4);
    checki "same dip, same shard" s1 s2
  done

let suite =
  [
    Alcotest.test_case "jobs=1 bit-identical to Engine" `Quick
      test_jobs1_bit_identical;
    Alcotest.test_case "differential: 9 catalog queries at 4 shards" `Slow
      test_differential_catalog;
    Alcotest.test_case "merged state = sequential state" `Quick
      test_merged_state_matches_sequential;
    Alcotest.test_case "merge commutative (property)" `Quick
      test_merge_commutative;
    Alcotest.test_case "merge associative (property)" `Quick
      test_merge_associative;
    Alcotest.test_case "merge = per-register ALU (property)" `Quick
      test_merge_is_alu_update;
    Alcotest.test_case "merge size mismatch" `Quick test_merge_size_mismatch;
    Alcotest.test_case "count-min merge sums" `Quick test_count_min_merge_sums;
    Alcotest.test_case "flow sharding keeps flows local" `Quick
      test_shard_flow_locality;
    Alcotest.test_case "branch-key sharding keeps aggregates local" `Quick
      test_shard_branch_key_locality;
  ]
