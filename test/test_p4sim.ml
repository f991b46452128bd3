(** Tests for the P4 interpreter subsystem: program parsing, wire
    frames, rule-document round-trips, and the differential harness
    proving the interpreted pipeline reports exactly what the
    simulator engine reports on the pinned mixed corpus. *)

open Newton_p4sim

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let program_text = lazy (Newton_p4gen.Emit.program ())
let program = lazy (P4parse.parse (Lazy.force program_text))

(* ---------------- parsing the emitted program ---------------- *)

let test_emitted_program_parses () =
  let p = Lazy.force program in
  checkb "headers_t declared" true
    (P4ast.find_struct p "headers_t" <> None);
  checkb "metadata_t declared" true
    (P4ast.find_struct p "metadata_t" <> None);
  checkb "parser has a start state" true (P4ast.find_state p "start" <> None);
  let ingress =
    List.find_opt
      (fun (c : P4ast.control) -> c.P4ast.c_tables <> [])
      p.P4ast.controls
  in
  match ingress with
  | None -> Alcotest.fail "no control with tables"
  | Some c ->
      checkb "ingress declares the register file" true
        (List.exists (fun (n, _) -> n = "newton_state") c.P4ast.c_registers);
      (* default layout: 12 stages x 2 sets x (K,H,S,R,T) + init,
         resume, recirc, fin *)
      checki "table count" ((12 * 2 * 5) + 4) (List.length c.P4ast.c_tables)

let test_parse_rejects_garbage () =
  checkb "syntax error is typed" true
    (try
       ignore (P4parse.parse "control { this is not p4 }");
       false
     with P4parse.Parse_error _ -> true)

(* ---------------- rule-document round-trip ---------------- *)

let test_rules_json_round_trip () =
  List.iter
    (fun q ->
      let entries =
        Newton_p4gen.Rules.entries_exn
          (Newton_compiler.Compose.compile q)
      in
      let back = P4rules.of_json (Newton_p4gen.Rules.to_json entries) in
      checkb
        (Printf.sprintf "Q%d rules survive JSON round-trip"
           q.Newton_query.Ast.id)
        true
        (entries = back))
    [ Newton_query.Catalog.q4 (); Newton_query.Catalog.q12 ();
      Newton_query.Catalog.q17 () ]

let test_bad_rule_document_rejected () =
  checkb "malformed document is typed" true
    (try ignore (P4rules.of_json "{\"not\":\"an array\"}"); false
     with P4rules.Bad_document _ -> true)

(* ---------------- wire frames ---------------- *)

let make = Newton_packet.Packet.make

(* One packet per skip condition, each with a frame Decode reads back
   exactly unless the reason says otherwise. *)
let test_wire_skip_reasons () =
  let expect what reason pkt =
    match Diff.wire pkt with
    | Error why ->
        Alcotest.(check string) what (Diff.skip_to_string reason)
          (Diff.skip_to_string why)
    | Ok _ -> Alcotest.failf "%s: expected a skip" what
  in
  expect "tunneled IPv6" Diff.Outside_parser
    (make ~ip_ver:6 ~proto:17 ~tun_id:9 ());
  expect "tunneled DNS" Diff.Outside_parser
    (make ~proto:17 ~src_port:1234 ~dst_port:53 ~dns_qr:1 ~dns_ancount:2
       ~pkt_len:48 ~payload_len:20 ~tun_id:9 ());
  expect "inner protocol without an L4 header" Diff.Outside_parser
    (make ~proto:50 ~tun_id:9 ());
  expect "ICMPv6 over IPv4" Diff.Outside_parser
    (make ~proto:58 ~icmp_type:128 ~pkt_len:28 ());
  expect "DNS fields off port 53" Diff.No_faithful_frame
    (make ~proto:17 ~src_port:1234 ~dst_port:4444 ~dns_qr:1 ());
  expect "TCP length no header carries" Diff.No_faithful_frame
    (make ~proto:6 ~pkt_len:64 ~payload_len:30 ())

(* Count reports per distinct key vector: with threshold 0 every new
   key in a window reports once. *)
let keyed_query ~id fields =
  let keys = Newton_query.Ast.keys fields in
  Newton_query.Ast.chain ~id ~name:(Printf.sprintf "keyed%d" id)
    ~description:""
    [
      Newton_query.Ast.Map keys;
      Newton_query.Ast.Reduce { keys; agg = Newton_query.Ast.Count };
      Newton_query.Ast.Filter [ Newton_query.Ast.result_gt 0 ];
      Newton_query.Ast.Map keys;
    ]

(* The ingress port rides an 802.1Q tag in the frame; the parser steps
   over the tag and the port comes from switch metadata. *)
let test_wire_keeps_ingress_port () =
  let pkt =
    make ~proto:6 ~src_port:1000 ~dst_port:80 ~pkt_len:40 ~payload_len:0
      ~ingress_port:7 ()
  in
  (match Diff.wire pkt with
  | Ok frame ->
      checki "802.1Q tag" 0x8100
        (String.get_uint16_be frame 12)
  | Error why -> Alcotest.failf "skipped: %s" (Diff.skip_to_string why));
  match
    Diff.run_query
      (Newton_compiler.Compose.compile
         (keyed_query ~id:901 [ Newton_packet.Field.Ingress_port ]))
      [ pkt ]
  with
  | Error _ -> Alcotest.fail "no rule encoding"
  | Ok r ->
      checki "kept" 1 r.Diff.replayed;
      checkb "identical" true (Diff.matched r);
      checkb "the port is the report key" true
        (List.map (fun (rep : Newton_query.Report.t) -> rep.keys)
           r.Diff.p4_reports
        = [ [| 7 |] ])

(* Field vectors drawn from few shapes with stray values mixed in, so
   both skip reasons and every parser path occur. *)
let random_packets ~seed n =
  let rng = Random.State.make [| seed |] in
  let int bound = Random.State.int rng bound in
  let word () = Random.State.bits rng lor (int 4 lsl 30) in
  let pick a = a.(int (Array.length a)) in
  let stray v = if int 8 = 0 then v else 0 in
  List.init n (fun i ->
      let proto = pick [| 1; 6; 17; 58; 47; 50 |] in
      let tcp = proto = 6 and icmp = proto = 1 || proto = 58 in
      let l4 = tcp || proto = 17 in
      let port () = if l4 then pick [| 53; 80; 4789; int 0x10000 |] else stray 53 in
      let payload = pick [| 0; 0; 12; 100; 1400 |] in
      let hdr =
        pick [| 20; 28; 40; 48; 52; 60; 64; 80 |] + if tcp then pick [| 0; 20 |] else 0
      in
      let ip_ver = pick [| 4; 4; 4; 6; 6; 5 |] in
      make ~ts:(float_of_int i *. 0.001) ~src_ip:(word ()) ~dst_ip:(word ())
        ~proto ~src_port:(port ()) ~dst_port:(port ())
        ~tcp_flags:(if tcp then int 0x100 else stray 2)
        ~tcp_seq:(if tcp then word () else stray 1)
        ~tcp_ack:(if tcp then word () else stray 1)
        ~pkt_len:(hdr + payload + if ip_ver = 6 then 20 else 0)
        ~payload_len:(if l4 || icmp then payload else stray payload)
        ~ttl:(int 0x100)
        ~dns_qr:(if proto = 17 then int 2 else stray 1)
        ~dns_ancount:(if proto = 17 then pick [| 0; 1; 3 |] else stray 1)
        ~ingress_port:(pick [| 0; 0; int 0x200 |])
        ~ip_ver
        ~icmp_type:(if icmp then int 0x100 else stray 8)
        ~icmp_code:(if icmp then int 0x100 else stray 1)
        ~tun_id:(pick [| 0; 0; 1 + int 0xFFFFFF |])
        ())

(* Every kept random vector reports identically on both targets, under
   two queries that together key on all 18 fields. *)
let test_random_vector_differential () =
  let fields = Newton_packet.Field.all in
  let first = List.filteri (fun i _ -> i < 9) fields in
  let second = Newton_packet.Field.Src_ip :: List.filteri (fun i _ -> i >= 9) fields in
  List.iter
    (fun seed ->
      let packets = random_packets ~seed 3000 in
      List.iter
        (fun (id, keys) ->
          match
            Diff.run_query
              (Newton_compiler.Compose.compile (keyed_query ~id keys))
              packets
          with
          | Error _ -> Alcotest.fail "no rule encoding"
          | Ok r ->
              let what = Printf.sprintf "seed %d query %d" seed id in
              checkb (what ^ ": some kept") true (r.Diff.replayed > 0);
              checkb (what ^ ": some skipped") true (r.Diff.skipped > 0);
              if not (Diff.matched r) then
                Alcotest.failf "%s diverged: %s" what (Diff.describe r))
        [ (902, first); (903, second) ])
    [ 1; 2 ]

let test_corpus_frames_all_kept () =
  (* Every packet the generator can produce runs on both targets. *)
  let n_skipped = ref 0 in
  List.iter
    (fun pkt ->
      match Diff.wire pkt with Ok _ -> () | Error _ -> incr n_skipped)
    (Corpus.coverage_packets ~scale:0.02 ());
  checki "skipped packets" 0 !n_skipped

(* ---------------- the differential ---------------- *)

(* The tentpole acceptance check: identical report multisets between
   the simulator engine and the interpreted P4 pipeline for every
   catalog query Q1-Q17 on the pinned mixed v4/v6/ICMPv6/tunnel
   corpus, with full packet coverage and at least one report per
   query (so the identity is never vacuous). *)
let test_differential_all_queries () =
  let packets = Corpus.coverage_packets () in
  List.iter
    (fun q ->
      match Diff.run_query (Newton_compiler.Compose.compile q) packets with
      | Error issue ->
          Alcotest.failf "Q%d has no rule encoding: %s" q.Newton_query.Ast.id
            (Newton_p4gen.Rules.issue_to_string issue)
      | Ok r ->
          checki
            (Printf.sprintf "Q%d: no packet skipped" q.Newton_query.Ast.id)
            0 r.Diff.skipped;
          checkb
            (Printf.sprintf "Q%d: engine actually reports"
               q.Newton_query.Ast.id)
            true
            (r.Diff.engine_reports <> []);
          if not (Diff.matched r) then
            Alcotest.failf "Q%d diverged: %s" q.Newton_query.Ast.id
              (Diff.describe r))
    (Newton_query.Catalog.all () @ Newton_query.Catalog.extras ())

(* Divergence is detected, not defined away: perturb one interpreter
   report and the harness must flag the outcome. *)
let test_differential_detects_divergence () =
  let packets = Corpus.coverage_packets ~scale:0.02 () in
  match
    Diff.run_query
      (Newton_compiler.Compose.compile (Newton_query.Catalog.q1 ()))
      packets
  with
  | Error _ -> Alcotest.fail "q1 must have a rule encoding"
  | Ok r ->
      checkb "baseline matches" true (Diff.matched r);
      checkb "baseline reports" true (r.Diff.p4_reports <> []);
      let broken =
        { r with Diff.p4_reports = List.tl r.Diff.p4_reports }
      in
      checkb "dropped report detected" false (Diff.matched broken);
      checkb "disagreement localized" true
        (match Diff.first_disagreement broken with
        | Some (`Engine_only _) -> true
        | _ -> false)

(* ---------------- deployment-artifact lint ---------------- *)

(* What [newton p4 emit --lint] does: parse the program, instantiate it
   and install the rule document.  Each case below lints one artifact
   pair the way a rollout would push it. *)
let lint ~program ~rules_json =
  let interp = Interp.create (P4parse.parse program) in
  Interp.install interp (P4rules.of_json rules_json)

let install_fails ~program ~rules_json =
  try lint ~program ~rules_json; false with Interp.Install_error _ -> true

let entry ~table ~action =
  Printf.sprintf
    {|{"table":"%s","priority":1,"match":[{"field":"meta.class_id","type":"exact","value":1}],"action":"%s","params":{}}|}
    table action

let compiled_rules_json ?layout q =
  match Newton_p4gen.Rules.entries ?layout (Newton_compiler.Compose.compile q) with
  | Ok entries -> Newton_p4gen.Rules.to_json entries
  | Error issue ->
      Alcotest.failf "Q%d has no rule encoding: %s" q.Newton_query.Ast.id
        (Newton_p4gen.Rules.issue_to_string issue)

let test_catalog_rules_all_clean () =
  List.iter
    (fun q ->
      let rules_json = compiled_rules_json q in
      match lint ~program:(Lazy.force program_text) ~rules_json with
      | () -> ()
      | exception Interp.Install_error msg ->
          Alcotest.failf "Q%d artifacts do not install: %s" q.Newton_query.Ast.id msg)
    (Newton_query.Catalog.all () @ Newton_query.Catalog.extras ())

let test_inventory_recovers_declared_tables () =
  let layout = { Newton_p4gen.Emit.stages = 2; registers = 64; rules_per_table = 16 } in
  let p = P4parse.parse (Newton_p4gen.Emit.program ~layout ()) in
  let tables =
    List.concat_map (fun (c : P4ast.control) -> c.P4ast.c_tables) p.P4ast.controls
  in
  let size name =
    (List.find (fun (t : P4ast.table) -> t.P4ast.t_name = name) tables).P4ast.t_size
  in
  (* 2 stages x 2 sets x 5 kinds (K,H,S,R,T) + init/resume/recirc/fin *)
  checki "table count" 24 (List.length tables);
  checkb "sizes recovered" true (size "newton_k_s0_m0" = Some 16);
  checkb "init table larger" true (size "newton_init" = Some 64)

let test_unknown_table_detected () =
  let program =
    Newton_p4gen.Emit.program
      ~layout:{ Newton_p4gen.Emit.default_layout with Newton_p4gen.Emit.stages = 1 } ()
  in
  let rules_json =
    "[" ^ entry ~table:"newton_k_s9_m0" ~action:"newton_k_s9_m0_select" ^ "]"
  in
  checkb "unknown table rejected" true (install_fails ~program ~rules_json)

let test_unknown_action_detected () =
  let rules_json = "[" ^ entry ~table:"newton_k_s0_m0" ~action:"explode" ^ "]" in
  checkb "unknown action rejected" true
    (install_fails ~program:(Lazy.force program_text) ~rules_json)

let test_overflow_detected () =
  let layout = { Newton_p4gen.Emit.stages = 1; registers = 16; rules_per_table = 2 } in
  let program = Newton_p4gen.Emit.program ~layout () in
  let rules n =
    "["
    ^ String.concat ","
        (List.init n (fun _ -> entry ~table:"newton_k_s0_m0" ~action:"newton_k_s0_m0_select"))
    ^ "]"
  in
  checkb "a full table installs" false (install_fails ~program ~rules_json:(rules 2));
  checkb "overflow rejected" true (install_fails ~program ~rules_json:(rules 3))

let test_malformed_document () =
  let bad_document rules_json =
    try lint ~program:(Lazy.force program_text) ~rules_json; false
    with P4rules.Bad_document _ -> true
  in
  checkb "malformed JSON" true (bad_document "{not json");
  checkb "top level is not an array" true (bad_document {|{"not":"an array"}|})

let test_rules_beyond_emitted_stages_flagged () =
  (* A query whose stages exceed the emitted layout references tables
     that do not exist — the install catches the misdeployment. *)
  let layout = { Newton_p4gen.Emit.default_layout with Newton_p4gen.Emit.stages = 3 } in
  let program = Newton_p4gen.Emit.program ~layout () in
  let rules_json = compiled_rules_json ~layout (Newton_query.Catalog.q4 ()) in
  match lint ~program ~rules_json with
  | () -> Alcotest.fail "Q4 installed on a 3-stage program"
  | exception Interp.Install_error msg ->
      checkb "stage overflow caught as an unknown table" true
        (String.starts_with ~prefix:"no such table" msg)

let suite =
  [
    ("emitted program parses", `Quick, test_emitted_program_parses);
    ("parse rejects garbage", `Quick, test_parse_rejects_garbage);
    ("rules json round trip", `Quick, test_rules_json_round_trip);
    ("bad rule document rejected", `Quick, test_bad_rule_document_rejected);
    ("wire skip reasons", `Quick, test_wire_skip_reasons);
    ("wire keeps the ingress port", `Quick, test_wire_keeps_ingress_port);
    ("random-vector differential", `Quick, test_random_vector_differential);
    ("corpus frames all kept", `Quick, test_corpus_frames_all_kept);
    ("differential detects divergence", `Quick, test_differential_detects_divergence);
    ("differential all queries", `Slow, test_differential_all_queries);
  ]

(* Registered as its own section: artifact linting through the
   interpreter. *)
let lint_suite =
  [
    ("catalog rules all clean", `Quick, test_catalog_rules_all_clean);
    ("inventory recovers declared tables", `Quick, test_inventory_recovers_declared_tables);
    ("unknown table detected", `Quick, test_unknown_table_detected);
    ("unknown action detected", `Quick, test_unknown_action_detected);
    ("overflow detected", `Quick, test_overflow_detected);
    ("malformed document", `Quick, test_malformed_document);
    ("rules beyond emitted stages flagged", `Quick, test_rules_beyond_emitted_stages_flagged);
  ]
