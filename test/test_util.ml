(** Tests for Newton_util: PRNG, Zipf sampling, statistics, table
    formatting. *)

open Newton_util

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf = Alcotest.check (Alcotest.float 1e-9)

(* ---------------- Prng ---------------- *)

let test_prng_deterministic () =
  let a = Prng.of_int 42 and b = Prng.of_int 42 in
  for _ = 1 to 100 do
    checki "same seed, same stream" (Prng.int a max_int) (Prng.int b max_int)
  done

let test_prng_seeds_differ () =
  let a = Prng.of_int 1 and b = Prng.of_int 2 in
  let va = List.init 10 (fun _ -> Prng.int a max_int) in
  let vb = List.init 10 (fun _ -> Prng.int b max_int) in
  checkb "different seeds diverge" true (va <> vb)

let test_prng_int_bounds () =
  let rng = Prng.of_int 7 in
  for _ = 1 to 1000 do
    let v = Prng.int rng 17 in
    checkb "in [0,17)" true (v >= 0 && v < 17)
  done

let test_prng_int_rejects_nonpositive () =
  let rng = Prng.of_int 7 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int rng 0))

let test_prng_float_range () =
  let rng = Prng.of_int 9 in
  for _ = 1 to 1000 do
    let v = Prng.float rng in
    checkb "in [0,1)" true (v >= 0.0 && v < 1.0)
  done

let test_prng_float_mean () =
  let rng = Prng.of_int 11 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Prng.float rng
  done;
  let mean = !sum /. float_of_int n in
  checkb "mean near 0.5" true (abs_float (mean -. 0.5) < 0.02)

let test_prng_split_independent () =
  let a = Prng.of_int 5 in
  let b = Prng.split a in
  let va = List.init 10 (fun _ -> Prng.int a max_int) in
  let vb = List.init 10 (fun _ -> Prng.int b max_int) in
  checkb "split stream differs" true (va <> vb)

let test_prng_bernoulli_extremes () =
  let rng = Prng.of_int 3 in
  for _ = 1 to 100 do
    checkb "p=1 always true" true (Prng.bernoulli rng 1.0);
    checkb "p=0 always false" false (Prng.bernoulli rng 0.0)
  done

let test_prng_exponential_mean () =
  let rng = Prng.of_int 13 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Prng.exponential rng 2.0
  done;
  checkb "mean near 1/lambda" true (abs_float ((!sum /. float_of_int n) -. 0.5) < 0.02)

let test_prng_exponential_rejects () =
  let rng = Prng.of_int 13 in
  Alcotest.check_raises "lambda 0"
    (Invalid_argument "Prng.exponential: lambda must be positive") (fun () ->
      ignore (Prng.exponential rng 0.0))

let test_prng_pareto_lower_bound () =
  let rng = Prng.of_int 17 in
  for _ = 1 to 1000 do
    checkb "pareto >= xm" true (Prng.pareto rng ~alpha:1.5 ~xm:3.0 >= 3.0)
  done

let test_prng_shuffle_permutation () =
  let rng = Prng.of_int 19 in
  let arr = Array.init 50 Fun.id in
  Prng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "same elements" (Array.init 50 Fun.id) sorted

let test_prng_choice () =
  let rng = Prng.of_int 23 in
  let arr = [| 10; 20; 30 |] in
  for _ = 1 to 100 do
    checkb "choice from array" true (Array.mem (Prng.choice rng arr) arr)
  done;
  Alcotest.check_raises "empty" (Invalid_argument "Prng.choice: empty array")
    (fun () -> ignore (Prng.choice rng [||]))

let test_prng_geometric () =
  let rng = Prng.of_int 29 in
  checki "p=1 gives 0" 0 (Prng.geometric rng 1.0);
  for _ = 1 to 100 do
    checkb "non-negative" true (Prng.geometric rng 0.3 >= 0)
  done

(* ---------------- Zipf ---------------- *)

let test_zipf_range () =
  let z = Zipf.create ~n:100 ~exponent:1.0 in
  let rng = Prng.of_int 31 in
  for _ = 1 to 1000 do
    let r = Zipf.sample z rng in
    checkb "rank in [1,100]" true (r >= 1 && r <= 100)
  done

let test_zipf_pmf_sums_to_one () =
  let z = Zipf.create ~n:50 ~exponent:1.2 in
  let total = List.fold_left (fun acc r -> acc +. Zipf.pmf z r) 0.0 (List.init 50 (fun i -> i + 1)) in
  checkf "pmf sums to 1" 1.0 total

let test_zipf_skew () =
  let z = Zipf.create ~n:1000 ~exponent:1.0 in
  let rng = Prng.of_int 37 in
  let top = ref 0 and n = 20_000 in
  for _ = 1 to n do
    if Zipf.sample z rng <= 10 then incr top
  done;
  (* Top-10 ranks carry a large share under Zipf(1.0) over 1000 ranks. *)
  checkb "top-10 ranks dominate" true (float_of_int !top /. float_of_int n > 0.3)

let test_zipf_pmf_monotone () =
  let z = Zipf.create ~n:20 ~exponent:1.5 in
  for r = 1 to 19 do
    checkb "pmf decreasing" true (Zipf.pmf z r >= Zipf.pmf z (r + 1))
  done

let test_zipf_uniform_when_zero_exponent () =
  let z = Zipf.create ~n:10 ~exponent:0.0 in
  for r = 1 to 10 do
    checkb "uniform pmf" true (abs_float (Zipf.pmf z r -. 0.1) < 1e-9)
  done

let test_zipf_rejects_bad_args () =
  Alcotest.check_raises "n=0" (Invalid_argument "Zipf.create: n must be positive")
    (fun () -> ignore (Zipf.create ~n:0 ~exponent:1.0));
  Alcotest.check_raises "negative exponent"
    (Invalid_argument "Zipf.create: exponent must be >= 0") (fun () ->
      ignore (Zipf.create ~n:5 ~exponent:(-1.0)))

(* ---------------- Stats ---------------- *)

let test_stats_mean () =
  checkf "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  checkb "mean of empty is nan" true (Float.is_nan (Stats.mean []))

let test_stats_percentile () =
  let xs = [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  checkf "p0 = min" 1.0 (Stats.percentile 0.0 xs);
  checkf "p100 = max" 5.0 (Stats.percentile 100.0 xs);
  checkf "p50 = median" 3.0 (Stats.percentile 50.0 xs);
  checkf "p25 interpolates" 2.0 (Stats.percentile 25.0 xs)

let test_stats_median_unsorted () =
  checkf "median of unsorted" 3.0 (Stats.median [ 5.0; 1.0; 3.0; 2.0; 4.0 ])

let test_stats_stddev () =
  checkf "stddev of constant" 0.0 (Stats.stddev [ 4.0; 4.0; 4.0 ]);
  checkb "stddev positive" true (Stats.stddev [ 1.0; 5.0 ] > 0.0)

let test_stats_ecdf () =
  let e = Stats.ecdf [ 1.0; 1.0; 2.0 ] in
  check
    (Alcotest.list (Alcotest.pair (Alcotest.float 1e-9) (Alcotest.float 1e-9)))
    "ecdf points"
    [ (1.0, 2.0 /. 3.0); (2.0, 1.0) ]
    e

let test_stats_ratio () =
  checkf "ratio" 0.5 (Stats.ratio 1 2);
  checkf "zero denominator" 0.0 (Stats.ratio 5 0)

(* ---------------- Tablefmt ---------------- *)

let test_tablefmt_render () =
  let t = Tablefmt.create ~aligns:[ Tablefmt.Left; Tablefmt.Right ] [ "a"; "bb" ] in
  Tablefmt.add_row t [ "xx"; "1" ];
  let s = Tablefmt.render t in
  checkb "contains header" true (String.length s > 0);
  checkb "has three lines" true
    (List.length (String.split_on_char '\n' (String.trim s)) = 3)

let test_tablefmt_rejects_mismatch () =
  let t = Tablefmt.create [ "a"; "b" ] in
  Alcotest.check_raises "wrong arity" (Invalid_argument "Tablefmt.add_row: cell count mismatch")
    (fun () -> Tablefmt.add_row t [ "only-one" ])

let test_tablefmt_alignment () =
  let t = Tablefmt.create ~aligns:[ Tablefmt.Right ] [ "col" ] in
  Tablefmt.add_row t [ "7" ];
  let lines = String.split_on_char '\n' (String.trim (Tablefmt.render t)) in
  (* right-aligned single char under 3-wide header *)
  Alcotest.check Alcotest.string "right aligned" "  7" (List.nth lines 2)

let suite =
  [
    ("prng deterministic", `Quick, test_prng_deterministic);
    ("prng seeds differ", `Quick, test_prng_seeds_differ);
    ("prng int bounds", `Quick, test_prng_int_bounds);
    ("prng int rejects nonpositive", `Quick, test_prng_int_rejects_nonpositive);
    ("prng float range", `Quick, test_prng_float_range);
    ("prng float mean", `Quick, test_prng_float_mean);
    ("prng split independent", `Quick, test_prng_split_independent);
    ("prng bernoulli extremes", `Quick, test_prng_bernoulli_extremes);
    ("prng exponential mean", `Quick, test_prng_exponential_mean);
    ("prng exponential rejects", `Quick, test_prng_exponential_rejects);
    ("prng pareto lower bound", `Quick, test_prng_pareto_lower_bound);
    ("prng shuffle permutation", `Quick, test_prng_shuffle_permutation);
    ("prng choice", `Quick, test_prng_choice);
    ("prng geometric", `Quick, test_prng_geometric);
    ("zipf range", `Quick, test_zipf_range);
    ("zipf pmf sums to one", `Quick, test_zipf_pmf_sums_to_one);
    ("zipf skew", `Quick, test_zipf_skew);
    ("zipf pmf monotone", `Quick, test_zipf_pmf_monotone);
    ("zipf uniform at exponent 0", `Quick, test_zipf_uniform_when_zero_exponent);
    ("zipf rejects bad args", `Quick, test_zipf_rejects_bad_args);
    ("stats mean", `Quick, test_stats_mean);
    ("stats percentile", `Quick, test_stats_percentile);
    ("stats median unsorted", `Quick, test_stats_median_unsorted);
    ("stats stddev", `Quick, test_stats_stddev);
    ("stats ecdf", `Quick, test_stats_ecdf);
    ("stats ratio", `Quick, test_stats_ratio);
    ("tablefmt render", `Quick, test_tablefmt_render);
    ("tablefmt rejects mismatch", `Quick, test_tablefmt_rejects_mismatch);
    ("tablefmt alignment", `Quick, test_tablefmt_alignment);
  ]
