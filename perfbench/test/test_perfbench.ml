(** Tests of the benchmark's own helpers: percentile selection, the
    report-multiset diff, span self time and VmHWM parsing. *)

let checkf msg expected actual = Alcotest.(check (float 1e-9)) msg expected actual
let checki msg expected actual = Alcotest.(check int) msg expected actual

(* ---------------- percentiles ---------------- *)

let test_percentile_nearest_rank () =
  let xs = List.init 100 (fun i -> float_of_int (100 - i)) in
  checkf "p50 of 1..100" 50. (Stat.percentile xs 50.);
  checkf "p99 of 1..100" 99. (Stat.percentile xs 99.);
  checkf "p100 is the max" 100. (Stat.percentile xs 100.);
  checkf "median, even count" 50.5 (Stat.median xs);
  checkf "median, odd count" 2. (Stat.median [ 3.; 1.; 2. ])

let test_tail_percentile () =
  let pct n = Stat.tail_percentile n in
  Alcotest.(check (option int)) "too few samples" None (pct 10);
  Alcotest.(check (option int)) "20 samples: the median" (Some 50) (pct 20);
  Alcotest.(check (option int)) "45 samples" (Some 77) (pct 45);
  Alcotest.(check (option int)) "100 samples" (Some 90) (pct 100);
  Alcotest.(check (option int)) "1000 samples" (Some 99) (pct 1000);
  (* the chosen percentile always leaves at least ten samples above *)
  List.iter
    (fun n ->
      match pct n with
      | None -> ()
      | Some p ->
          let xs = List.init n float_of_int in
          let v = Stat.percentile xs (float_of_int p) in
          let beyond = List.length (List.filter (fun x -> x > v) xs) in
          Alcotest.(check bool) (Printf.sprintf "n=%d p%d" n p) true (beyond >= 10);
          if p < 99 then begin
            let v' = Stat.percentile xs (float_of_int (p + 1)) in
            let beyond' = List.length (List.filter (fun x -> x > v') xs) in
            Alcotest.(check bool)
              (Printf.sprintf "n=%d p%d is the highest" n p)
              true (beyond' < 10)
          end)
    [ 11; 20; 30; 45; 60; 99; 250 ]

(* ---------------- report multisets ---------------- *)

let report ?(value = 1) q w k =
  Newton_query.Report.make ~query_id:q ~window:w ~keys:[| k |] ~value ()

let test_diff () =
  let a = report 1 0 10 and b = report 1 1 10 and c = report 2 0 7 in
  let d = Oracle.diff ~reference:[ a; b; b ] ~measured:[ b; c ] in
  checki "missing counts duplicates" 2 d.Oracle.missing;
  checki "extra" 1 d.Oracle.extra;
  checki "mismatch" 3 (Oracle.mismatch d);
  let same = Oracle.diff ~reference:[ a; b; c ] ~measured:[ c; b; a ] in
  checki "order does not matter" 0 (Oracle.mismatch same);
  let v = Oracle.diff ~reference:[ a ] ~measured:[ report ~value:2 1 0 10 ] in
  checki "a different value is missing+extra" 2 (Oracle.mismatch v)

let test_recall () =
  let truth = [ report 1 0 1; report 1 0 2; report 1 1 1; report 2 0 9 ] in
  let r =
    Oracle.recall ~query_id:1 ~truth ~detected:[ report ~value:5 1 0 1; report 1 1 1 ]
  in
  checki "truth of the query" 3 r.Oracle.truth;
  checki "missed" 1 r.Oracle.missed;
  checkf "share" (2. /. 3.) (Oracle.recall_share r)

(* ---------------- spans ---------------- *)

let span ?(parent = 0) id start stop =
  { Span.id; name = "s"; parent; start; stop; counts = [] }

let test_self_time () =
  let p = span 1 0. 10. in
  checkf "no children" 10. (Span.self_time p []);
  checkf "disjoint children" 6.
    (Span.self_time p [ span 2 1. 3.; span 3 5. 7. ]);
  checkf "overlapping children count once" 5.
    (Span.self_time p [ span 2 1. 4.; span 3 3. 6. ]);
  checkf "children clipped to the parent" 8.
    (Span.self_time p [ span 2 (-5.) 1.; span 3 9. 20. ]);
  checkf "nested child inside another" 7.
    (Span.self_time p [ span 2 2. 5.; span 3 3. 4. ]);
  let shadows = Span.rebase p [ span 2 100. 102.; span 3 200. 203. ] in
  checkf "rebased shadow calls" 5. (Span.self_time p shadows)

let test_recorder () =
  let r = Span.recorder true in
  let inner = ref 0 in
  let outer =
    Span.timed r "outer" (fun id ->
        Span.timed r ~parent:id "inner" (fun iid -> inner := iid);
        id)
  in
  (match Span.children r outer with
  | [ c ] -> checki "child names its parent" !inner c.Span.id
  | l -> Alcotest.failf "expected one child, got %d" (List.length l));
  let off = Span.recorder false in
  ignore (Span.timed off "x" (fun _ -> ()));
  checki "a disabled recorder keeps nothing" 0 (List.length (Span.spans off))

(* ---------------- VmHWM ---------------- *)

let test_vmhwm () =
  let status = "Name:\tnewton_perf\nVmPeak:\t  200000 kB\nVmHWM:\t   51234 kB\nVmRSS:\t 40000 kB\n" in
  Alcotest.(check (option int)) "parsed" (Some 51234) (Rss.parse_vmhwm status);
  Alcotest.(check (option int)) "absent" None (Rss.parse_vmhwm "VmRSS:\t1 kB\n");
  Alcotest.(check (option int)) "garbled" None (Rss.parse_vmhwm "VmHWM:\tlots kB\n");
  Alcotest.(check bool) "this process" true (Rss.peak_mb () > 0.)

let () =
  Alcotest.run "perfbench"
    [
      ( "stat",
        [ Alcotest.test_case "nearest rank" `Quick test_percentile_nearest_rank;
          Alcotest.test_case "tail percentile" `Quick test_tail_percentile ] );
      ( "oracle",
        [ Alcotest.test_case "multiset diff" `Quick test_diff;
          Alcotest.test_case "recall" `Quick test_recall ] );
      ( "span",
        [ Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "recorder" `Quick test_recorder ] );
      ("rss", [ Alcotest.test_case "VmHWM" `Quick test_vmhwm ]);
    ]
