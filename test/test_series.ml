(** Tests for the report-analysis series (per-window aggregation). *)

open Newton_query

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let r ?(q = 1) ?(w = 0) ?(keys = [| 7 |]) () =
  Report.make ~query_id:q ~window:w ~keys ~value:1 ()

let lines s = List.filter (( <> ) "") (String.split_on_char '\n' s)

let test_empty () =
  Alcotest.(check string) "no reports, no summary" ""
    (Series.summary (Series.of_reports []))

(* One line per query (span and one sparkline glyph per window of the
   whole series' span, scaled to the query's peak), then its top keys. *)
let test_counts_and_span () =
  let s =
    Series.of_reports [ r ~w:2 (); r ~w:2 (); r ~w:5 (); r ~q:2 ~w:3 () ]
  in
  Alcotest.(check (list string))
    "summary"
    [ "Q1   windows 2-5    [#  =]"; "      7: 3 reports";
      "Q2   windows 3-3    [ #  ]"; "      7: 1 reports" ]
    (lines (Series.summary s))

let test_query_ids_sorted () =
  let s = Series.of_reports [ r ~q:5 (); r ~q:1 (); r ~q:5 () ] in
  Alcotest.(check (list string))
    "ascending query lines"
    [ "Q1   windows 0-0    [#]"; "Q5   windows 0-0    [#]" ]
    (List.filter (fun l -> l.[0] = 'Q') (lines (Series.summary s)))

let test_top_keys () =
  let s =
    Series.of_reports
      [ r ~keys:[| 1 |] (); r ~keys:[| 1 |] (); r ~keys:[| 1 |] ~w:1 ();
        r ~keys:[| 2 |] (); r ~keys:[| 3 |] () ]
  in
  (match lines (Series.summary ~top:2 s) with
  | [ _; hottest; _ ] ->
      Alcotest.(check string) "hottest key first" "      1: 3 reports" hottest
  | l -> Alcotest.failf "unexpected summary shape (%d lines)" (List.length l));
  checki "top bounds the key lines" 2 (List.length (lines (Series.summary ~top:1 s)))

let test_sparkline_shape () =
  let s =
    Series.of_reports
      [ r ~w:0 (); r ~w:0 (); r ~w:0 (); r ~w:0 (); r ~w:2 () ]
  in
  (* peak window densest, quiet window blank, one glyph per window *)
  Alcotest.(check string) "sparkline" "Q1   windows 0-2    [# :]"
    (List.hd (lines (Series.summary s)))

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
  let text = Series.summary ~top:5 (Series.of_reports (Newton.Device.reports d)) in
  let victim = Printf.sprintf "      %d: " (Newton_trace.Attack.host_of 1) in
  checkb "series covers the attack" true
    (String.length text > 0 && String.sub text 0 13 = "Q1   windows ");
  checkb "flood victim among the top keys" true
    (List.exists
       (fun l ->
         String.length l > String.length victim
         && String.sub l 0 (String.length victim) = victim)
       (lines text))

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
