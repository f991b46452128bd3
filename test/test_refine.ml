(** Tests for iterative prefix refinement ({!Newton.Reactive.refinement}). *)

open Newton

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let victim = Newton_trace.Attack.host_of 1 (* 10.200.0.1 *)
let base_id = 700

let flood_trace ?(flows = 600) () =
  Newton_trace.Gen.generate
    ~attacks:
      [ Newton_trace.Attack.Syn_flood { victim; attackers = 40; syns_per_attacker = 25 } ]
    ~seed:42
    (Newton_trace.Profile.with_flows Newton_trace.Profile.caida_like flows)

(* Install the root query, then run the reactive loop over [passes]
   replays of [trace] (so queries installed late see a full pass),
   stepping every 500 packets.  Returns the root's handle and install
   latency, and the service. *)
let refine ?(passes = 2) d ~levels trace =
  let root, rules = Reactive.refinement ~base_id ~field:Field.Dst_ip ~levels ~th:20 () in
  let root_handle, root_latency = Device.add_query d root in
  let svc = Reactive.create d rules in
  for _ = 1 to passes do
    Reactive.process_trace ~step_every:500 svc trace
  done;
  (root_handle, root_latency, svc)

(* Finest-level detections: the device reports of the last level. *)
let results d ~levels =
  let finest = List.fold_left max 0 levels in
  List.filter (fun (r : Report.t) -> r.Report.query_id = base_id + finest) (Device.reports d)

let installed_names d = List.rev_map (fun (q : Query.t) -> q.Query.name) (Device.queries d)

(* The refinement of [flood_trace ()] with levels 8/16/24/32, threshold
   20 and two passes, as recorded from the standalone refinement loop
   this constructor replaced: the queries installed, in order, and the
   /32 results as (window, value, keys) sorted by window then key. *)
let pinned_installs =
  [ "refine_8_0";
    "refine_16_a000000";
    "refine_24_a000000";
    "refine_24_ac80000";
    "refine_32_a000000";
    "refine_32_ac80000";
    "refine_32_a000400";
    "refine_32_a000100";
    "refine_32_a000200";
    "refine_32_a001f00";
    "refine_32_a000300";
    "refine_32_a000d00";
    "refine_32_a000900";
    "refine_32_a000600";
    "refine_32_a001400";
    "refine_32_a001600";
    "refine_32_a000800";
    "refine_32_a001900";
    "refine_32_a000e00" ]

let pinned_results =
  [ (0, 21,
      [ 0xa000001; 0xa000002; 0xa000003; 0xa00000c; 0xac80001 ]);
    (1, 21,
      [ 0xa000001; 0xa000002; 0xa000003; 0xa000004; 0xa000007; 0xa000008;
        0xa000009; 0xa00000b; 0xa000017; 0xa000020; 0xa00002f; 0xa00048c;
        0xac80001 ]);
    (2, 21,
      [ 0xa000001; 0xa000001; 0xa000002; 0xa000002; 0xa000003; 0xa000003;
        0xa000004; 0xa000004; 0xa000006; 0xa000006; 0xa00000b; 0xa00000b;
        0xa000010; 0xa000010; 0xa000017; 0xa000017; 0xa00002f; 0xa00002f;
        0xa0001c9; 0xa0001c9; 0xa0002a2; 0xa0002a2; 0xa00048c; 0xa00048c;
        0xa001f51; 0xac80001; 0xac80001 ]);
    (3, 21,
      [ 0xa000001; 0xa000001; 0xa000002; 0xa000002; 0xa000003; 0xa000003;
        0xa000004; 0xa000004; 0xa000007; 0xa000007; 0xa00003d; 0xa00003d;
        0xa001f51; 0xa001f51; 0xac80001; 0xac80001 ]);
    (4, 21,
      [ 0xa000001; 0xa000001; 0xa000002; 0xa000002; 0xa000003; 0xa000003;
        0xa000008; 0xa000008; 0xa0000ed; 0xa0000ed; 0xa000269; 0xa000269;
        0xa000dce; 0xac80001; 0xac80001 ]);
    (5, 21,
      [ 0xa000001; 0xa000001; 0xa000002; 0xa000002; 0xa000003; 0xa000003;
        0xa000005; 0xa000005; 0xa000021; 0xa000021; 0xa00003f; 0xa00003f;
        0xa000177; 0xa000177; 0xa00063c; 0xa00063c; 0xa000916; 0xa000916;
        0xac80001; 0xac80001 ]);
    (6, 21,
      [ 0xa000001; 0xa000001; 0xa000002; 0xa000002; 0xa000003; 0xa000003;
        0xa000004; 0xa000004; 0xa000005; 0xa000005; 0xa00000b; 0xa00000b;
        0xa00000d; 0xa00000d; 0xa000010; 0xa000010; 0xa00001b; 0xa00001b;
        0xa000021; 0xa000021; 0xa000118; 0xa000118; 0xa000177; 0xa000177;
        0xa0002d1; 0xa0002d1; 0xa00063c; 0xa00063c; 0xa000916; 0xa000916;
        0xa001635; 0xa001635; 0xac80001; 0xac80001 ]);
    (7, 21,
      [ 0xa000001; 0xa000001; 0xa000002; 0xa000002; 0xa000003; 0xa000003;
        0xa000005; 0xa000005; 0xa00001b; 0xa00001b; 0xa000021; 0xa000021;
        0xac80001; 0xac80001 ]);
    (8, 21,
      [ 0xa000001; 0xa000001; 0xa000002; 0xa000002; 0xa000004; 0xa000004;
        0xa00001d; 0xa00001d; 0xa00006b; 0xa00006b; 0xac80001; 0xac80001 ]);
    (9, 21,
      [ 0xa000001; 0xa000001; 0xa000002; 0xa000002; 0xa000003; 0xa000003;
        0xa00000d; 0xa00000d; 0xa00000e; 0xa00000e; 0xa00004b; 0xa00004b;
        0xa0000b7; 0xa0000b7; 0xa000112; 0xa000112; 0xa0008f4; 0xac80001;
        0xac80001 ]) ]

let test_pinned_refinement () =
  let d = Device.create () in
  let levels = [ 8; 16; 24; 32 ] in
  ignore (refine d ~levels (flood_trace ()));
  Alcotest.(check (list string)) "installed queries" pinned_installs (installed_names d);
  let expected =
    List.concat_map
      (fun (window, value, keys) -> List.map (fun k -> (window, k, value)) keys)
      pinned_results
  in
  let got =
    List.sort compare
      (List.map (fun (r : Report.t) -> (r.Report.window, r.Report.keys.(0), r.Report.value))
         (results d ~levels))
  in
  Alcotest.(check (list (triple int int int))) "/32 results" expected got

let test_create_validation () =
  let rejects levels =
    try ignore (Reactive.refinement ~field:Field.Dst_ip ~levels ~th:5 ()); false
    with Invalid_argument _ -> true
  in
  checkb "rejects empty levels" true (rejects []);
  checkb "rejects unordered levels" true (rejects [ 16; 8 ]);
  checkb "rejects bad lengths" true (rejects [ 0; 8 ])

let test_root_installed_on_create () =
  let d = Device.create () in
  let root, rules = Reactive.refinement ~base_id ~field:Field.Dst_ip ~levels:[ 8; 16 ] ~th:5 () in
  ignore (Device.add_query d root);
  checki "root keyed on the coarsest level" (base_id + 8) root.Query.id;
  checki "one rule per non-finest level" 1 (List.length rules);
  checki "device has it" 1 (List.length (Device.queries d))

let test_refines_down_to_the_host () =
  let d = Device.create () in
  let levels = [ 8; 16; 24; 32 ] in
  let _, root_latency, svc = refine d ~levels (flood_trace ()) in
  let hits =
    results d ~levels |> List.map (fun x -> x.Report.keys.(0)) |> List.sort_uniq compare
  in
  checkb "victim found at /32" true (List.mem victim hits);
  (* The refinement only opened crossing prefixes: far fewer installs
     than the hundreds of active hosts a flat host-level scan covers. *)
  let spawned = Reactive.spawned svc in
  checkb "few refinement queries" true (1 + List.length spawned <= 50);
  let latency =
    List.fold_left (fun acc (s : Reactive.spawned) -> acc +. s.Reactive.latency) root_latency spawned
  in
  checkb "all installs were rule-time" true (latency < 0.2);
  checkb "forwarding never interrupted" true
    (Newton_dataplane.Switch.outage_time (Device.switch d) = 0.0)

let test_results_scoped_to_crossing_prefixes () =
  let d = Device.create () in
  let levels = [ 8; 16 ] in
  ignore (refine d ~levels (flood_trace ()));
  (* every /16 result must fall under the victim's /8 (10.x) —
     background traffic also lives in 10/8 but below threshold hosts
     never refine further *)
  List.iter
    (fun (x : Report.t) ->
      checki "result inside the crossing /8" 0x0A000000 (x.Report.keys.(0) land 0xFF000000))
    (results d ~levels)

let test_no_duplicate_refinements () =
  let d = Device.create () in
  let trace = flood_trace () in
  let _, _, svc = refine ~passes:1 d ~levels:[ 8; 16 ] trace in
  let installs_after_one = List.length (Reactive.spawned svc) in
  Reactive.process_trace ~step_every:500 svc trace;
  checki "same prefixes do not reinstall" installs_after_one
    (List.length (Reactive.spawned svc))

let test_retract_all () =
  let d = Device.create () in
  let root, _, svc = refine ~passes:1 d ~levels:[ 8; 16; 24 ] (flood_trace ()) in
  checkb "several levels live" true (List.length (Device.queries d) >= 2);
  let spawned = List.length (Reactive.spawned svc) in
  checki "removed every refinement" spawned (Reactive.retract_all svc);
  ignore (Device.remove_query d root);
  checki "all removed" 0 (List.length (Device.queries d))

let test_refine_subset_of_flat_query () =
  (* Soundness: every /32 refinement result is also found by a flat
     host-level query at the same threshold over the same traffic. *)
  let trace = flood_trace () in
  let d = Device.create () in
  let levels = [ 8; 16; 32 ] in
  ignore (refine d ~levels trace);
  let flat = Device.create () in
  let q =
    Query.chain ~id:1 ~name:"flat" ~description:""
      [ Query.Map (Query.keys [ Field.Dst_ip ]);
        Query.Reduce { keys = Query.keys [ Field.Dst_ip ]; agg = Query.Count };
        Query.Filter [ Query.result_gt 20 ];
        Query.Map (Query.keys [ Field.Dst_ip ]) ]
  in
  let _ = Device.add_query flat q in
  Device.process_trace flat trace;
  let flat_keys =
    Device.reports flat |> List.map (fun x -> x.Report.keys.(0)) |> List.sort_uniq compare
  in
  List.iter
    (fun (x : Report.t) ->
      checkb "refined hit also found flat" true (List.mem x.Report.keys.(0) flat_keys))
    (results d ~levels)

let suite =
  [
    ("create validation", `Quick, test_create_validation);
    ("root installed on create", `Quick, test_root_installed_on_create);
    ("refines down to the host", `Quick, test_refines_down_to_the_host);
    ("matches the pinned refinement", `Quick, test_pinned_refinement);
    ("results scoped to crossing prefixes", `Quick, test_results_scoped_to_crossing_prefixes);
    ("no duplicate refinements", `Quick, test_no_duplicate_refinements);
    ("refine subset of flat query", `Quick, test_refine_subset_of_flat_query);
    ("retract all", `Quick, test_retract_all);
  ]
