(** Tests for the report-analysis series (per-window aggregation). *)

open Newton_query

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let r ?(q = 1) ?(w = 0) ?(keys = [| 7 |]) () =
  Report.make ~query_id:q ~window:w ~keys ~value:1 ()

let test_empty () =
  let s = Series.of_reports [] in
  checki "no reports" 0 (Series.total s);
  checkb "no span" true (Series.window_span s = None);
  Alcotest.(check (list int)) "no queries" [] (Series.query_ids s);
  Alcotest.(check string) "empty sparkline" "" (Series.sparkline s ~query_id:1)

let test_counts_and_span () =
  let s =
    Series.of_reports [ r ~w:2 (); r ~w:2 (); r ~w:5 (); r ~q:2 ~w:3 () ]
  in
  checki "total" 4 (Series.total s);
  checki "count q1 w2" 2 (Series.count s ~query_id:1 ~window:2);
  checki "count q1 w3" 0 (Series.count s ~query_id:1 ~window:3);
  checkb "global span" true (Series.window_span s = Some (2, 5));
  checkb "q1 active span" true (Series.active_span s ~query_id:1 = Some (2, 5));
  checkb "q2 active span" true (Series.active_span s ~query_id:2 = Some (3, 3));
  checkb "absent query" true (Series.active_span s ~query_id:9 = None)

let test_query_ids_sorted () =
  let s = Series.of_reports [ r ~q:5 (); r ~q:1 (); r ~q:5 () ] in
  Alcotest.(check (list int)) "sorted unique" [ 1; 5 ] (Series.query_ids s)

let test_top_keys () =
  let s =
    Series.of_reports
      [ r ~keys:[| 1 |] (); r ~keys:[| 1 |] (); r ~keys:[| 1 |] ~w:1 ();
        r ~keys:[| 2 |] (); r ~keys:[| 3 |] () ]
  in
  (match Series.top_keys s ~query_id:1 ~n:2 with
  | [ (k1, 3); (_, 1) ] -> Alcotest.(check (array int)) "hottest key" [| 1 |] k1
  | l -> Alcotest.failf "unexpected top-keys shape (%d entries)" (List.length l));
  checki "n bounds the list" 1 (List.length (Series.top_keys s ~query_id:1 ~n:1))

let test_sparkline_shape () =
  let s =
    Series.of_reports
      [ r ~w:0 (); r ~w:0 (); r ~w:0 (); r ~w:0 (); r ~w:2 () ]
  in
  let sl = Series.sparkline s ~query_id:1 in
  checki "one char per window in span" 3 (String.length sl);
  checkb "quiet window is blank" true (sl.[1] = ' ');
  let density c =
    let rec go i = if Series.spark_chars.(i) = c then i else go (i + 1) in
    go 0
  in
  checkb "peak window is densest" true (density sl.[0] > density sl.[2])

let test_summary_mentions_queries () =
  let s = Series.of_reports [ r (); r ~q:4 ~w:1 () ] in
  let text = Series.summary s in
  checkb "mentions Q1" true
    (String.length text > 0
    && List.exists
         (fun line -> String.length line >= 2 && String.sub line 0 2 = "Q1")
         (String.split_on_char '\n' text))

let test_end_to_end_with_device () =
  let trace =
    Newton_trace.Gen.generate ~attacks:Newton_trace.Attack.default_suite ~seed:8
      (Newton_trace.Profile.with_flows Newton_trace.Profile.caida_like 800)
  in
  let d = Newton.Device.create () in
  let _ = Newton.Device.add_query d (Catalog.q1 ()) in
  Newton.Device.process_trace d trace;
  let s = Series.of_reports (Newton.Device.reports d) in
  checkb "series covers the attack" true (Series.active_span s ~query_id:1 <> None);
  let top = Series.top_keys s ~query_id:1 ~n:5 in
  checkb "flood victim among the top keys" true
    (List.exists (fun (k, _) -> k.(0) = Newton_trace.Attack.host_of 1) top)

let suite =
  [
    ("empty", `Quick, test_empty);
    ("counts and span", `Quick, test_counts_and_span);
    ("query ids sorted", `Quick, test_query_ids_sorted);
    ("top keys", `Quick, test_top_keys);
    ("sparkline shape", `Quick, test_sparkline_shape);
    ("summary mentions queries", `Quick, test_summary_mentions_queries);
    ("end to end with device", `Quick, test_end_to_end_with_device);
  ]
