(** Tests for Newton_sketch: hashes, ALUs, register arrays, Count-Min
    sketches, exact oracles.  The engine's [distinct] is a Bloom filter
    built from register-array rows ([Alu.Or]); its no-false-negative
    behaviour is pinned end to end in [test_properties]. *)

open Newton_sketch

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* ---------------- Hash ---------------- *)

let test_hash_deterministic () =
  let h = Hash.create ~seed:1 ~range:1024 in
  checki "same input same output" (Hash.apply h [| 1; 2; 3 |]) (Hash.apply h [| 1; 2; 3 |])

let test_hash_range () =
  let h = Hash.create ~seed:2 ~range:100 in
  for i = 0 to 999 do
    let v = Hash.apply h [| i; i * 7 |] in
    checkb "in range" true (v >= 0 && v < 100)
  done

let test_hash_seed_independence () =
  let h1 = Hash.create ~seed:1 ~range:1048576 in
  let h2 = Hash.create ~seed:2 ~range:1048576 in
  let collisions = ref 0 in
  for i = 0 to 999 do
    if Hash.apply h1 [| i |] = Hash.apply h2 [| i |] then incr collisions
  done;
  checkb "seeds behave independently" true (!collisions < 5)

let test_hash_spreads () =
  let h = Hash.create ~seed:3 ~range:4096 in
  let seen = Hashtbl.create 64 in
  for i = 0 to 999 do
    Hashtbl.replace seen (Hash.apply h [| i |]) ()
  done;
  checkb "well spread over 4096 buckets" true (Hashtbl.length seen > 850)

let test_hash_order_sensitive () =
  let h = Hash.create ~seed:4 ~range:(1 lsl 30) in
  checkb "key order matters" true (Hash.apply h [| 1; 2 |] <> Hash.apply h [| 2; 1 |])

let test_hash_rejects_bad_range () =
  Alcotest.check_raises "range 0" (Invalid_argument "Hash.create: range must be positive")
    (fun () -> ignore (Hash.create ~seed:0 ~range:0))

(* The chained vector hash as first written: [Array.iter] with a
   closure over an [int64 ref].  The loop form must stay bit-identical
   to it, since every sketch index and report dedup bucket derives from
   these values. *)
let reference_hash_vector ~seed keys =
  let mix64 h =
    let h = Int64.logxor h (Int64.shift_right_logical h 33) in
    let h = Int64.mul h 0xFF51AFD7ED558CCDL in
    let h = Int64.logxor h (Int64.shift_right_logical h 33) in
    let h = Int64.mul h 0xC4CEB9FE1A85EC53L in
    Int64.logxor h (Int64.shift_right_logical h 33)
  in
  let acc = ref (Int64.mul (Int64.of_int (seed + 1)) 0x9E3779B97F4A7C15L) in
  Array.iter
    (fun k ->
      acc := mix64 (Int64.add (Int64.logxor !acc (Int64.of_int k)) 0x632BE59BD9B4E019L))
    keys;
  Int64.to_int (Int64.shift_right_logical (mix64 !acc) 2)

(* Key words: small, negative, beyond 32 bits, and the extremes. *)
let key_word =
  QCheck.Gen.(
    oneof
      [ int_range (-1000) 1000; int; map (fun x -> x lsl 33) (int_bound 0xFFFFFF);
        oneofl [ 0; -1; min_int; max_int; 0xFFFFFFFF; 0x100000000 ] ])

let qcheck_hash_vector_bit_identical =
  QCheck.Test.make ~count:1000 ~name:"hash_vector = Array.iter reference"
    (QCheck.make
       ~print:QCheck.Print.(pair int (array int))
       QCheck.Gen.(pair key_word (array_size (int_range 0 8) key_word)))
    (fun (seed, keys) ->
      Hash.hash_vector ~seed keys = reference_hash_vector ~seed keys)

let qcheck_hash5_is_vector =
  QCheck.Test.make ~count:500 ~name:"hash5 = hash_vector of five"
    (QCheck.make
       ~print:QCheck.Print.(pair int (array int))
       QCheck.Gen.(pair key_word (array_size (return 5) key_word)))
    (fun (seed, k) ->
      Hash.hash5 ~seed k.(0) k.(1) k.(2) k.(3) k.(4) = Hash.hash_vector ~seed k)

(* ---------------- Alu ---------------- *)

(* Run [alu] on a one-cell word array holding [v]: the ALU result and
   the cell after. *)
let run_alu alu v =
  let a = Register_array.create 1 in
  Register_array.set a 0 v;
  let r = Register_array.exec a alu 0 in
  (r, Register_array.get a 0)

let checkp = Alcotest.(check (pair int int))

let test_alu_add () =
  checkp "returns and stores the new value" (15, 15) (run_alu (Alu.Add 5) 10);
  checkp "saturates at the cap" (Alu.cell_max, Alu.cell_max)
    (run_alu (Alu.Add 5) (Alu.cell_max - 2));
  checki "cap is 2^32-1" 0xFFFF_FFFF Alu.cell_max

let test_alu_or_returns_previous () =
  checkp "prev was 0" (0, 1) (run_alu (Alu.Or 1) 0);
  checkp "prev now 1" (1, 1) (run_alu (Alu.Or 1) 1)

let test_alu_max () =
  checkp "max keeps larger" (7, 7) (run_alu (Alu.Max 3) 7);
  checkp "max takes larger" (9, 9) (run_alu (Alu.Max 9) 7)

let test_alu_read_write () =
  checkp "read" (42, 42) (run_alu Alu.Read 42);
  checkp "write returns prev, stores" (42, 5) (run_alu (Alu.Write 5) 42)

(* ---------------- Register_array ---------------- *)

let test_reg_array_basic () =
  let a = Register_array.create 8 in
  checki "size" 8 (Register_array.size a);
  Register_array.set a 3 9;
  checki "get" 9 (Register_array.get a 3)

let test_reg_array_bounds () =
  let a = Register_array.create 4 in
  Alcotest.check_raises "get out of range"
    (Invalid_argument "Register_array.get: index out of range") (fun () ->
      ignore (Register_array.get a 4))

let test_reg_array_exec_counts_ops () =
  let a = Register_array.create 4 in
  ignore (Register_array.exec a (Alu.Add 1) 0);
  ignore (Register_array.exec a (Alu.Add 1) 1);
  checki "two ops" 2 (Register_array.ops a)

(* An out-of-range ALU execution names the entry point, the index and
   the size, and is not counted. *)
let test_reg_array_exec_bounds () =
  let a = Register_array.create 4 in
  ignore (Register_array.exec a (Alu.Add 1) 3);
  Alcotest.check_raises "exec out of range"
    (Invalid_argument "Register_array.exec: index 4 out of range [0,4)") (fun () ->
      ignore (Register_array.exec a (Alu.Add 1) 4));
  Alcotest.check_raises "exec negative"
    (Invalid_argument "Register_array.exec: index -1 out of range [0,4)") (fun () ->
      ignore (Register_array.exec a (Alu.Max 1) (-1)));
  checki "rejected ops not counted" 1 (Register_array.ops a)

let test_reg_array_clear_and_occupancy () =
  let a = Register_array.create 8 in
  ignore (Register_array.exec a (Alu.Add 1) 2);
  ignore (Register_array.exec a (Alu.Add 1) 5);
  checki "occupancy 2" 2 (Register_array.occupancy a);
  Register_array.clear a;
  checki "occupancy 0 after clear" 0 (Register_array.occupancy a)

let test_reg_array_sram_bytes () =
  checki "4096 regs = 16KB" 16384 (Register_array.sram_bytes (Register_array.create 4096))

let test_reg_array_rejects_nonpositive () =
  Alcotest.check_raises "size 0"
    (Invalid_argument "Register_array.create: size must be positive") (fun () ->
      ignore (Register_array.create 0))

(* One-bit cells mean what word cells mean for a Bloom bank's ALU: the
   same [Or 1] results, cell values, occupancy, fold, [`Or] merge and
   copy, at sizes off a 32-cell boundary; a value that does not fit a
   bit and a summing merge are refused. *)
let test_reg_array_one_bit_cells () =
  let size = 77 in
  let bits = Register_array.create ~cells:Register_array.Bits size in
  let words = Register_array.create size in
  let other_bits = Register_array.create ~cells:Register_array.Bits size in
  let other_words = Register_array.create size in
  let state = ref 7 in
  for _ = 1 to 60 do
    state := ((!state * 1103515245) + 12345) land 0xFFFFFF;
    let i = !state mod size in
    checki (Printf.sprintf "or 1 at %d" i)
      (Register_array.exec words (Alu.Or 1) i)
      (Register_array.exec bits (Alu.Or 1) i);
    let j = (!state lsr 8) mod size in
    ignore (Register_array.exec other_words (Alu.Or 1) j);
    ignore (Register_array.exec other_bits (Alu.Or 1) j)
  done;
  let same name a b =
    Alcotest.(check (list int)) name
      (Register_array.fold (fun acc v -> v :: acc) [] a)
      (Register_array.fold (fun acc v -> v :: acc) [] b);
    checki (name ^ ": occupancy") (Register_array.occupancy a) (Register_array.occupancy b);
    for i = 0 to size - 1 do
      checki (Printf.sprintf "%s: get %d" name i) (Register_array.get a i)
        (Register_array.get b i)
    done
  in
  same "after or 1" words bits;
  checki "ops counted" (Register_array.ops words) (Register_array.ops bits);
  let copied = Register_array.copy bits and copied_words = Register_array.copy words in
  Register_array.merge_into ~op:`Or ~dst:words ~src:other_words;
  Register_array.merge_into ~op:`Or ~dst:bits ~src:other_bits;
  same "after or merge" words bits;
  Register_array.set bits 76 0;
  Register_array.set words 76 0;
  same "after set" words bits;
  same "copy before the merge" copied_words copied;
  Alcotest.check_raises "set 2"
    (Invalid_argument "Register_array.set: value 2 does not fit a one-bit cell")
    (fun () -> Register_array.set bits 3 2);
  Alcotest.check_raises "add merge"
    (Invalid_argument "Register_array.merge_into: one-bit cells merge only with `Or")
    (fun () -> Register_array.merge_into ~op:`Add ~dst:bits ~src:other_bits);
  Register_array.clear bits;
  checki "occupancy 0 after clear" 0 (Register_array.occupancy bits)

(* Word cells are 32 bits, four bytes each: at sizes off any word
   boundary every cell holds the whole domain independently of its
   neighbours, and out-of-domain values are refused. *)
let test_reg_array_word_cells () =
  List.iter
    (fun size ->
      let a = Register_array.create size in
      for i = 0 to size - 1 do
        Register_array.set a i (if i land 1 = 0 then Alu.cell_max else i)
      done;
      for i = 0 to size - 1 do
        checki (Printf.sprintf "size %d: cell %d" size i)
          (if i land 1 = 0 then Alu.cell_max else i)
          (Register_array.get a i)
      done;
      checki (Printf.sprintf "size %d: occupancy" size) size
        (Register_array.occupancy a);
      checki (Printf.sprintf "size %d: fold" size)
        (List.init size (fun i -> if i land 1 = 0 then Alu.cell_max else i)
         |> List.fold_left ( + ) 0)
        (Register_array.fold ( + ) 0 a))
    [ 1; 3; 4097 ];
  let a = Register_array.create 8 in
  for k = 0 to 3 do
    Register_array.set a (2 * k) Alu.cell_max;
    checki (Printf.sprintf "cell %d untouched by %d" ((2 * k) + 1) (2 * k)) 0
      (Register_array.get a ((2 * k) + 1));
    Register_array.set a ((2 * k) + 1) 0x8000_0001;
    checki (Printf.sprintf "cell %d untouched by %d" (2 * k) ((2 * k) + 1))
      Alu.cell_max (Register_array.get a (2 * k));
    Register_array.set a (2 * k) 0;
    checki (Printf.sprintf "cell %d kept" ((2 * k) + 1)) 0x8000_0001
      (Register_array.get a ((2 * k) + 1))
  done;
  Alcotest.check_raises "set 2^32"
    (Invalid_argument "Register_array.set: value 4294967296 does not fit a 32-bit cell")
    (fun () -> Register_array.set a 3 (Alu.cell_max + 1));
  Alcotest.check_raises "set -1"
    (Invalid_argument "Register_array.set: value -1 does not fit a 32-bit cell")
    (fun () -> Register_array.set a 3 (-1));
  checki "refused set left the cell" 0x8000_0001 (Register_array.get a 3)

(* [Add] at the cap stays at the cap and is one ALU execution; a
   summing merge saturates the same way. *)
let test_reg_array_saturates () =
  let a = Register_array.create 3 in
  Register_array.set a 1 (Alu.cell_max - 1);
  checki "reaches the cap" Alu.cell_max (Register_array.exec a (Alu.Add 65535) 1);
  checki "stays at the cap" Alu.cell_max (Register_array.exec a (Alu.Add 1) 1);
  checki "counted once each" 2 (Register_array.ops a);
  checki "neighbours untouched" 0 (Register_array.get a 0 + Register_array.get a 2);
  let b = Register_array.create 3 in
  Register_array.set b 0 7;
  Register_array.set b 1 2;
  Register_array.set b 2 (Alu.cell_max - 5);
  Register_array.set a 2 10;
  Register_array.merge_into ~op:`Add ~dst:a ~src:b;
  Alcotest.(check (list int)) "add merge saturates"
    [ 7; Alu.cell_max; Alu.cell_max ]
    (List.init 3 (Register_array.get a));
  checki "merge is not an op" 2 (Register_array.ops a)

(* [exec] runs the ALU on the cell's value: no minor words on either
   cell width, whatever the ALU. *)
let test_reg_array_exec_allocates_nothing () =
  List.iter
    (fun (name, cells, alus) ->
      let a = Register_array.create ~cells 4096 in
      let n = 10_000 in
      let run () =
        for i = 0 to n - 1 do
          let alu = alus.(i land 3) in
          ignore (Sys.opaque_identity (Register_array.exec a alu ((i * 37) land 4095)))
        done
      in
      run ();
      let before = Gc.minor_words () in
      run ();
      let words = Gc.minor_words () -. before in
      checkb (Printf.sprintf "%s: %.0f minor words over %d execs" name words n) true
        (words < 100.))
    [ ("words", Register_array.Words,
       [| Alu.Add 1; Alu.Max 40; Alu.Read; Alu.Add 65535 |]);
      ("bits", Register_array.Bits, [| Alu.Or 1; Alu.Read; Alu.Or 1; Alu.Or 0 |]) ]

(* ---------------- Count_min ---------------- *)

let test_cm_exact_when_sparse () =
  let cm = Count_min.create ~width:4096 ~depth:3 ~seed:8 in
  for _ = 1 to 5 do
    ignore (Count_min.add cm [| 7 |] 1)
  done;
  checki "exact count when uncontended" 5 (Count_min.estimate cm [| 7 |])

let test_cm_add_returns_estimate () =
  let cm = Count_min.create ~width:4096 ~depth:2 ~seed:9 in
  checki "first add returns 1" 1 (Count_min.add cm [| 3 |] 1);
  checki "second add returns 2" 2 (Count_min.add cm [| 3 |] 1)

let test_cm_weighted_add () =
  let cm = Count_min.create ~width:4096 ~depth:2 ~seed:10 in
  ignore (Count_min.add cm [| 1 |] 100);
  checki "weighted" 100 (Count_min.estimate cm [| 1 |])

let test_cm_never_underestimates () =
  let cm = Count_min.create ~width:64 ~depth:2 ~seed:11 in
  let truth = Hashtbl.create 16 in
  let rng = Newton_util.Prng.of_int 3 in
  for _ = 1 to 2000 do
    let k = Newton_util.Prng.int rng 300 in
    Hashtbl.replace truth k (1 + Option.value (Hashtbl.find_opt truth k) ~default:0);
    ignore (Count_min.add cm [| k |] 1)
  done;
  Hashtbl.iter
    (fun k v -> checkb "estimate >= truth" true (Count_min.estimate cm [| k |] >= v))
    truth

let test_cm_clear () =
  let cm = Count_min.create ~width:64 ~depth:2 ~seed:12 in
  ignore (Count_min.add cm [| 1 |] 5);
  Count_min.clear cm;
  checki "cleared" 0 (Count_min.estimate cm [| 1 |]);
  checki "total reset" 0 (Count_min.total cm)

let test_cm_unknown_key_zero () =
  let cm = Count_min.create ~width:4096 ~depth:3 ~seed:13 in
  checki "empty sketch estimates 0" 0 (Count_min.estimate cm [| 999 |])

let qcheck_cm_overestimate_only =
  QCheck.Test.make ~count:50 ~name:"count-min: never underestimates"
    QCheck.(list_of_size Gen.(int_range 1 500) (int_bound 100))
    (fun keys ->
      let cm = Count_min.create ~width:128 ~depth:3 ~seed:17 in
      List.iter (fun k -> ignore (Count_min.add cm [| k |] 1)) keys;
      let truth = Hashtbl.create 16 in
      List.iter
        (fun k ->
          Hashtbl.replace truth k (1 + Option.value (Hashtbl.find_opt truth k) ~default:0))
        keys;
      Hashtbl.fold
        (fun k v acc -> acc && Count_min.estimate cm [| k |] >= v)
        truth true)

(* ---------------- Exact ---------------- *)

let test_exact_counter () =
  let c = Exact.Counter.create () in
  checki "add returns running total" 1 (Exact.Counter.add c [| 1; 2 |] 1);
  checki "accumulates" 4 (Exact.Counter.add c [| 1; 2 |] 3);
  checki "separate keys isolated" 0 (Exact.Counter.count c [| 9 |]);
  checki "cardinality" 1 (Exact.Counter.cardinality c)

let test_exact_counter_over_threshold () =
  let c = Exact.Counter.create () in
  ignore (Exact.Counter.add c [| 1 |] 10);
  ignore (Exact.Counter.add c [| 2 |] 3);
  let over = Exact.Counter.over_threshold c 5 in
  checki "one key over 5" 1 (List.length over)

let test_exact_distinct () =
  let d = Exact.Distinct.create () in
  checkb "first time false" false (Exact.Distinct.test_and_set d [| 5 |]);
  checkb "second time true" true (Exact.Distinct.test_and_set d [| 5 |]);
  checki "cardinality" 1 (Exact.Distinct.cardinality d);
  Exact.Distinct.clear d;
  checkb "cleared" false (Exact.Distinct.mem d [| 5 |])

let suite =
  [
    ("hash deterministic", `Quick, test_hash_deterministic);
    ("hash range", `Quick, test_hash_range);
    ("hash seed independence", `Quick, test_hash_seed_independence);
    ("hash spreads", `Quick, test_hash_spreads);
    ("hash order sensitive", `Quick, test_hash_order_sensitive);
    ("hash rejects bad range", `Quick, test_hash_rejects_bad_range);
    QCheck_alcotest.to_alcotest qcheck_hash_vector_bit_identical;
    QCheck_alcotest.to_alcotest qcheck_hash5_is_vector;
    ("alu add", `Quick, test_alu_add);
    ("alu or returns previous", `Quick, test_alu_or_returns_previous);
    ("alu max", `Quick, test_alu_max);
    ("alu read/write", `Quick, test_alu_read_write);
    ("register array basic", `Quick, test_reg_array_basic);
    ("register array bounds", `Quick, test_reg_array_bounds);
    ("register array op count", `Quick, test_reg_array_exec_counts_ops);
    ("register array exec bounds", `Quick, test_reg_array_exec_bounds);
    ("register array clear/occupancy", `Quick, test_reg_array_clear_and_occupancy);
    ("register array sram bytes", `Quick, test_reg_array_sram_bytes);
    ("register array rejects nonpositive", `Quick, test_reg_array_rejects_nonpositive);
    ("register array one-bit cells", `Quick, test_reg_array_one_bit_cells);
    ("register array 32-bit word cells", `Quick, test_reg_array_word_cells);
    ("register array add saturates", `Quick, test_reg_array_saturates);
    ("register array exec allocates nothing", `Quick, test_reg_array_exec_allocates_nothing);
    ("cm exact when sparse", `Quick, test_cm_exact_when_sparse);
    ("cm add returns estimate", `Quick, test_cm_add_returns_estimate);
    ("cm weighted add", `Quick, test_cm_weighted_add);
    ("cm never underestimates", `Quick, test_cm_never_underestimates);
    ("cm clear", `Quick, test_cm_clear);
    ("cm unknown key zero", `Quick, test_cm_unknown_key_zero);
    QCheck_alcotest.to_alcotest qcheck_cm_overestimate_only;
    ("exact counter", `Quick, test_exact_counter);
    ("exact counter over_threshold", `Quick, test_exact_counter_over_threshold);
    ("exact distinct", `Quick, test_exact_distinct);
  ]
