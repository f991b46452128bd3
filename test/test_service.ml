(** Tests for Newton_service: the intent lifecycle state machine, the
    typed API's JSON codecs, the shared command tokenizer, and the
    daemon core — including submit-while-replaying equivalence against
    a static deployment. *)

open Newton_service

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

(* A deterministic fake clock so lifecycle timestamps are exact. *)
let make_clock () =
  let now = ref 1000.0 in
  ( (fun () ->
      now := !now +. 0.001;
      !now),
    now )

let q4_ast () = Newton_query.Catalog.by_id 4

(* A query the admission gate refuses: NA030, threshold unreachable. *)
let rejectable_dsl =
  "map(dip) | reduce(dip, count) | filter(count > 2147483647) | map(dip)"

(* ---------------- lifecycle legality ---------------- *)

let test_lifecycle_happy_path () =
  let intent =
    Intent.create ~id:1 ~name:"x" ~source:"q4" ~now:1. (q4_ast ())
  in
  checkb "starts submitted" true (intent.Intent.state = Intent.Submitted);
  List.iter
    (fun s ->
      match Intent.transition intent ~now:2. s with
      | Ok () -> ()
      | Error m -> Alcotest.fail m)
    [ Intent.Analyzed; Intent.Placed; Intent.Active; Intent.Withdrawn ];
  checkb "ends withdrawn" true (intent.Intent.state = Intent.Withdrawn);
  checki "history has every state" 5 (List.length (Intent.history intent))

let test_no_active_without_placed () =
  (* Exhaustive edge check against the declared legality relation: the
     only inbound edge to Active is from Placed. *)
  List.iter
    (fun from ->
      let legal = Intent.can_transition from Intent.Active in
      checkb
        (Printf.sprintf "%s -> active" (Intent.state_to_string from))
        (from = Intent.Placed) legal)
    Intent.all_states;
  let intent =
    Intent.create ~id:1 ~name:"x" ~source:"q4" ~now:1. (q4_ast ())
  in
  checkb "submitted -> active refused" true
    (Result.is_error (Intent.transition intent ~now:2. Intent.Active));
  checkb "state unchanged on refusal" true
    (intent.Intent.state = Intent.Submitted)

let test_terminals_have_no_successors () =
  List.iter
    (fun terminal ->
      checkb
        (Intent.state_to_string terminal ^ " is terminal")
        true (Intent.is_terminal terminal);
      List.iter
        (fun into ->
          checkb
            (Printf.sprintf "%s -> %s illegal"
               (Intent.state_to_string terminal)
               (Intent.state_to_string into))
            false
            (Intent.can_transition terminal into))
        Intent.all_states)
    [ Intent.Withdrawn; Intent.Failed ]

let test_failed_reachable_from_non_terminals () =
  List.iter
    (fun from ->
      checkb
        (Printf.sprintf "%s -> failed" (Intent.state_to_string from))
        (not (Intent.is_terminal from))
        (Intent.can_transition from Intent.Failed))
    Intent.all_states

(* ---------------- tokenizer ---------------- *)

let test_tokenize_plain () =
  match Command.tokenize "submit q4 as  probe" with
  | Ok toks ->
      Alcotest.(check (list string)) "tokens" [ "submit"; "q4"; "as"; "probe" ] toks
  | Error m -> Alcotest.fail m

let test_tokenize_quotes () =
  (match Command.tokenize "submit 'filter(proto == udp) | map(dip)'" with
  | Ok toks ->
      Alcotest.(check (list string)) "single quotes"
        [ "submit"; "filter(proto == udp) | map(dip)" ]
        toks
  | Error m -> Alcotest.fail m);
  match Command.tokenize "a \"b \\\"c\\\" d\" e'f g'" with
  | Ok toks ->
      Alcotest.(check (list string)) "escapes and embedded quotes"
        [ "a"; "b \"c\" d"; "ef g" ] toks
  | Error m -> Alcotest.fail m

let test_tokenize_errors () =
  checkb "unterminated single" true
    (Result.is_error (Command.tokenize "a 'b"));
  checkb "unterminated double" true
    (Result.is_error (Command.tokenize "a \"b"));
  checkb "trailing escape" true
    (Result.is_error (Command.tokenize "a \"b\\"));
  (match Command.tokenize "" with
  | Ok [] -> ()
  | _ -> Alcotest.fail "empty line should tokenize to []");
  match Command.tokenize "a '' b" with
  | Ok toks ->
      Alcotest.(check (list string)) "empty quoted token survives"
        [ "a"; ""; "b" ] toks
  | Error m -> Alcotest.fail m

(* ---------------- request/response codec round-trips ---------------- *)

let roundtrip_request r =
  match Api.request_of_line (Api.request_to_line r) with
  | Ok r' -> checkb "request round-trips" true (r = r')
  | Error m -> Alcotest.fail m

let test_request_roundtrips () =
  List.iter roundtrip_request
    [
      Api.Submit { spec = Api.Catalog 4; name = None };
      Api.Submit { spec = Api.Catalog 12; name = Some "extra" };
      Api.Submit { spec = Api.Dsl rejectable_dsl; name = Some "bad one" };
      Api.Withdraw 3;
      Api.List_intents;
      Api.Status 7;
      Api.Stats Api.Json_format;
      Api.Stats Api.Prometheus_format;
      Api.Fail_switch 2;
      Api.Repair_switch 2;
      Api.Shutdown;
    ]

let sample_diag () =
  {
    Newton_analysis.Diag.code = "NA030";
    severity = Newton_analysis.Diag.Error;
    query_id = 1003;
    query_name = "bad";
    span = Newton_analysis.Diag.Prim { branch = 0; prim = 2 };
    message = "threshold can never hold";
    hint = Some "lower the threshold";
    witness = None;
  }

let sample_info ?(state = Intent.Active) () =
  {
    Intent.i_id = 3;
    i_name = "port_scan";
    i_query_id = 4;
    i_source = "q4";
    i_state = state;
    i_rules = 42;
    i_reports = 17;
    i_warnings = 1;
    i_errors = (if state = Intent.Failed then 1 else 0);
    i_submitted_at = 1754650000.123456;
    i_installed_at = (if state = Intent.Failed then None else Some 1754650000.623456);
    i_finished_at = None;
    i_install_latency = Some 0.0056;
    i_uninstall_latency = None;
    i_diags = (if state = Intent.Failed then [ sample_diag () ] else []);
  }

let roundtrip_response r =
  match Api.response_of_line (Api.response_to_line r) with
  | Ok r' -> checkb "response round-trips" true (r = r')
  | Error m -> Alcotest.fail m

let test_response_roundtrips () =
  List.iter roundtrip_response
    [
      Api.Accepted (sample_info ());
      Api.Refused { id = 9; diags = [ sample_diag () ] };
      Api.Withdrawn_ok { id = 9; latency = 0.0061 };
      Api.Intent_list [];
      Api.Intent_list [ sample_info (); sample_info ~state:Intent.Failed () ];
      Api.Intent_status
        {
          info = sample_info ~state:Intent.Failed ();
          history =
            [ (Intent.Submitted, 1754650000.123456); (Intent.Analyzed, 1754650000.2);
              (Intent.Failed, 1754650000.300001) ];
        };
      Api.Stats_payload { format = Api.Prometheus_format; body = "# HELP x\n" };
      Api.Recovery_done None;
      Api.Recovery_done
        (Some
           {
             Api.rc_switch = 2;
             rc_event = `Fail;
             rc_slices_migrated = 3;
             rc_cells_moved = 120;
             rc_software_fallbacks = 1;
             rc_rules_installed = 14;
             rc_latency = 0.0123;
           });
      Api.Stopping;
      Api.Error_resp { code = "bad-state"; message = "intent #2 is failed" };
    ]

(* Epoch timestamps survive the codec exactly (integer microseconds,
   not %g-rendered floats). *)
let test_info_time_precision () =
  let info = sample_info () in
  match Api.response_of_line (Api.response_to_line (Api.Accepted info)) with
  | Ok (Api.Accepted i) ->
      checkb "submitted_at exact" true
        (Float.abs (i.Intent.i_submitted_at -. info.Intent.i_submitted_at)
        < 1e-6);
      checkb "installed_at exact" true
        (match (i.Intent.i_installed_at, info.Intent.i_installed_at) with
        | Some a, Some b -> Float.abs (a -. b) < 1e-6
        | _ -> false)
  | _ -> Alcotest.fail "accepted did not round-trip"

let test_request_of_tokens () =
  let ok line expect =
    match Result.bind (Command.tokenize line) Api.request_of_tokens with
    | Ok r -> checkb line true (r = expect)
    | Error m -> Alcotest.fail (line ^ ": " ^ m)
  in
  ok "submit q4" (Api.Submit { spec = Api.Catalog 4; name = None });
  ok "submit q4 as probe" (Api.Submit { spec = Api.Catalog 4; name = Some "probe" });
  ok
    (Printf.sprintf "submit '%s'" rejectable_dsl)
    (Api.Submit { spec = Api.Dsl rejectable_dsl; name = None });
  ok "withdraw 3" (Api.Withdraw 3);
  ok "list" Api.List_intents;
  ok "status 7" (Api.Status 7);
  ok "stats" (Api.Stats Api.Json_format);
  ok "stats prom" (Api.Stats Api.Prometheus_format);
  ok "fail-switch 2" (Api.Fail_switch 2);
  ok "repair-switch 2" (Api.Repair_switch 2);
  ok "shutdown" Api.Shutdown;
  checkb "withdraw x is an error" true
    (Result.is_error (Api.request_of_tokens [ "withdraw"; "x" ]));
  checkb "unknown command is an error" true
    (Result.is_error (Api.request_of_tokens [ "frobnicate" ]))

(* ---------------- daemon core ---------------- *)

let make_daemon ?replay () =
  let clock, _ = make_clock () in
  let topo = Newton_network.Topo.linear 4 in
  Daemon.create ~clock ?replay topo

let test_submit_withdraw_lifecycle () =
  let d = make_daemon () in
  (match Daemon.handle d (Api.Submit { spec = Api.Catalog 4; name = None }) with
  | Api.Accepted info ->
      checki "id 1" 1 info.Intent.i_id;
      checkb "active" true (info.Intent.i_state = Intent.Active);
      checkb "rules installed" true (info.Intent.i_rules > 0);
      checkb "install latency recorded" true
        (info.Intent.i_install_latency <> None)
  | other -> Alcotest.fail (Api.response_summary other));
  (match Daemon.handle d (Api.Withdraw 1) with
  | Api.Withdrawn_ok { id; _ } -> checki "withdrawn id" 1 id
  | other -> Alcotest.fail (Api.response_summary other));
  (* Withdrawn is terminal: a second withdraw is a bad-state error. *)
  (match Daemon.handle d (Api.Withdraw 1) with
  | Api.Error_resp { code; _ } -> checks "second withdraw" "bad-state" code
  | other -> Alcotest.fail (Api.response_summary other));
  match Daemon.handle d (Api.Status 1) with
  | Api.Intent_status { info; _ } ->
      checkb "status shows withdrawn" true
        (info.Intent.i_state = Intent.Withdrawn);
      checkb "uninstall latency recorded" true
        (info.Intent.i_uninstall_latency <> None)
  | other -> Alcotest.fail (Api.response_summary other)

(* [status] returns every state the intent entered, oldest first, each
   stamped with the daemon clock: it starts at the summary's submit
   time, enters [active] at its install time and ends at its finish
   time, and it survives the wire codec. *)
let test_status_history () =
  let d = make_daemon () in
  (match Daemon.handle d (Api.Submit { spec = Api.Catalog 4; name = None }) with
  | Api.Accepted _ -> ()
  | other -> Alcotest.fail (Api.response_summary other));
  (match Daemon.handle d (Api.Withdraw 1) with
  | Api.Withdrawn_ok _ -> ()
  | other -> Alcotest.fail (Api.response_summary other));
  match Daemon.handle d (Api.Status 1) with
  | Api.Intent_status { info; history } as r ->
      Alcotest.(check (list string))
        "states, oldest first"
        [ "submitted"; "analyzed"; "placed"; "active"; "withdrawn" ]
        (List.map (fun (s, _) -> Intent.state_to_string s) history);
      let times = List.map snd history in
      checkb "times never go back" true
        (List.for_all2 ( <= ) (List.filteri (fun i _ -> i < 4) times) (List.tl times));
      checkb "starts at the submit time" true
        (List.hd times = info.Intent.i_submitted_at);
      checkb "ends at the finish time" true
        (Some (List.nth times 4) = info.Intent.i_finished_at);
      checkb "active at the install time" true
        (Some (List.nth times 3) = info.Intent.i_installed_at);
      (* times travel as whole microseconds: compare the lines *)
      let line = Api.response_to_line r in
      checkb "round-trips the wire" true
        (Result.map Api.response_to_line (Api.response_of_line line) = Ok line)
  | other -> Alcotest.fail (Api.response_summary other)

let test_rejected_intent_fails_with_diags () =
  let d = make_daemon () in
  (match
     Daemon.handle d (Api.Submit { spec = Api.Dsl rejectable_dsl; name = None })
   with
  | Api.Refused { id; diags } ->
      checki "id assigned" 1 id;
      checkb "NA030 attached" true
        (List.exists (fun g -> g.Newton_analysis.Diag.code = "NA030") diags)
  | other -> Alcotest.fail (Api.response_summary other));
  match Daemon.handle d (Api.Status 1) with
  | Api.Intent_status { info; _ } ->
      checkb "failed" true (info.Intent.i_state = Intent.Failed);
      checkb "diags ride on the intent" true
        (List.exists
           (fun g -> g.Newton_analysis.Diag.code = "NA030")
           info.Intent.i_diags);
      checkb "error counted" true (info.Intent.i_errors > 0)
  | other -> Alcotest.fail (Api.response_summary other)

let test_unknown_ids_are_errors () =
  let d = make_daemon () in
  (match Daemon.handle d (Api.Withdraw 42) with
  | Api.Error_resp { code; _ } -> checks "withdraw" "unknown-intent" code
  | other -> Alcotest.fail (Api.response_summary other));
  (match Daemon.handle d (Api.Status 42) with
  | Api.Error_resp { code; _ } -> checks "status" "unknown-intent" code
  | other -> Alcotest.fail (Api.response_summary other));
  match Daemon.handle d (Api.Submit { spec = Api.Catalog 99; name = None }) with
  | Api.Error_resp { code; _ } -> checks "submit q99" "bad-query" code
  | other -> Alcotest.fail (Api.response_summary other)

let test_handle_line_text_and_json () =
  let d = make_daemon () in
  (match Daemon.handle_line d "submit q4" with
  | Api.Accepted _ -> ()
  | other -> Alcotest.fail (Api.response_summary other));
  (match
     Daemon.handle_line d
       (Api.request_to_line (Api.Submit { spec = Api.Catalog 1; name = None }))
   with
  | Api.Accepted info -> checki "json submit id" 2 info.Intent.i_id
  | other -> Alcotest.fail (Api.response_summary other));
  (match Daemon.handle_line d "{not json" with
  | Api.Error_resp { code; _ } -> checks "bad json" "bad-request" code
  | other -> Alcotest.fail (Api.response_summary other));
  match Daemon.handle_line d "submit 'q4" with
  | Api.Error_resp { code; _ } -> checks "bad quoting" "bad-request" code
  | other -> Alcotest.fail (Api.response_summary other)

let test_shutdown_sets_stopping () =
  let d = make_daemon () in
  checkb "not stopping" false (Daemon.stopping d);
  (match Daemon.handle d Api.Shutdown with
  | Api.Stopping -> ()
  | other -> Alcotest.fail (Api.response_summary other));
  checkb "stopping" true (Daemon.stopping d)

(* ---------------- churn vs static equivalence ---------------- *)

let report_key r =
  let open Newton_query.Report in
  ( r.query_id,
    r.window,
    Array.to_list r.keys,
    r.value,
    r.value2 )

let sorted_keys rs = List.sort compare (List.map report_key rs)

(* Submitting an intent while a trace replays, then withdrawing a
   different one mid-replay, must leave the surviving intent's
   reconciled reports identical to a static deploy-everything-first
   run over the same trace. *)
let test_churn_matches_static () =
  let topo () = Newton_network.Topo.linear 4 in
  let trace =
    Newton_trace.Gen.generate ~attacks:Newton_trace.Attack.default_suite
      ~seed:7
      (Newton_trace.Profile.with_flows Newton_trace.Profile.caida_like 800)
  in
  let n = Newton_trace.Gen.length trace in
  (* churned run: q1 before replay, q4 submitted mid-replay and kept,
     q1 withdrawn mid-replay *)
  let replay =
    Replay.of_trace ~topo:(topo ()) ~desc:"churn" trace
  in
  let clock, _ = make_clock () in
  let d = Daemon.create ~clock ~replay ~replay_budget:max_int (topo ()) in
  (match Daemon.handle d (Api.Submit { spec = Api.Catalog 1; name = None }) with
  | Api.Accepted _ -> ()
  | other -> Alcotest.fail (Api.response_summary other));
  let third = n / 3 in
  let stepped = Replay.step replay ~now:infinity ~budget:third (Daemon.deploy d) in
  checki "first third replayed" third stepped;
  (match Daemon.handle d (Api.Submit { spec = Api.Catalog 4; name = None }) with
  | Api.Accepted _ -> ()
  | other -> Alcotest.fail (Api.response_summary other));
  ignore (Replay.step replay ~now:infinity ~budget:third (Daemon.deploy d));
  (match Daemon.handle d (Api.Withdraw 1) with
  | Api.Withdrawn_ok _ -> ()
  | other -> Alcotest.fail (Api.response_summary other));
  ignore (Replay.run_to_end replay (Daemon.deploy d));
  checkb "replay finished" true (Replay.finished replay);
  let churned =
    List.filter
      (fun r -> r.Newton_query.Report.query_id = 4)
      (Newton_controller.Deploy.reconciled_reports (Daemon.deploy d))
  in
  (* static run: only the surviving query (q4), deployed before the
     same packets it saw in the churned run (the last two thirds) *)
  let deploy = Newton_controller.Deploy.create (topo ()) in
  (match
     Newton_controller.Deploy.deploy_checked deploy
       (Newton_compiler.Compose.compile (Newton_query.Catalog.by_id 4))
   with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "static deploy refused");
  let static_replay =
    Replay.of_trace ~topo:(topo ()) ~desc:"static" trace
  in
  ignore (Replay.step static_replay ~now:infinity ~budget:third deploy);
  (* q4 was not installed for the first third in the churned run; the
     static run must compare over the same surviving window, so drop
     the reports the static run emitted there. *)
  let early =
    List.filter
      (fun r -> r.Newton_query.Report.query_id = 4)
      (Newton_controller.Deploy.reconciled_reports deploy)
  in
  ignore (Replay.run_to_end static_replay deploy);
  let static_all =
    List.filter
      (fun r -> r.Newton_query.Report.query_id = 4)
      (Newton_controller.Deploy.reconciled_reports deploy)
  in
  let early_keys = sorted_keys early in
  let static_keys =
    List.filter
      (fun k -> not (List.mem k early_keys))
      (sorted_keys static_all)
  in
  let churned_keys = sorted_keys churned in
  (* zero report loss: everything the static run reports after the
     install point is present in the churned run *)
  let lost =
    List.filter (fun k -> not (List.mem k churned_keys)) static_keys
  in
  checki "zero report loss" 0 (List.length lost);
  let extra =
    List.filter (fun k -> not (List.mem k static_keys)) churned_keys
  in
  (* window boundaries at the install point may add one partial-window
     report; nothing beyond that *)
  checkb "no spurious report flood" true (List.length extra <= 2)

let test_replay_budget_bounds_step () =
  let topo = Newton_network.Topo.linear 4 in
  let trace =
    Newton_trace.Gen.generate ~seed:3
      (Newton_trace.Profile.with_flows Newton_trace.Profile.caida_like 200)
  in
  let replay = Replay.of_trace ~topo ~desc:"bounded" trace in
  let deploy = Newton_controller.Deploy.create topo in
  let stepped = Replay.step replay ~now:infinity ~budget:5 deploy in
  checki "budget respected" 5 stepped;
  checki "position advanced" 5 (Replay.position replay)


(* [Accepted] carries the same report count that [status] returns right
   after it: a fresh query id has none yet, and a catalog intent
   withdrawn and re-submitted sees the reports its first deployment
   left behind. *)
let test_accepted_reports_match_status () =
  let topo () = Newton_network.Topo.linear 4 in
  let trace =
    Newton_trace.Gen.generate ~attacks:Newton_trace.Attack.default_suite
      ~seed:7
      (Newton_trace.Profile.with_flows Newton_trace.Profile.caida_like 800)
  in
  let third = Newton_trace.Gen.length trace / 3 in
  let replay = Replay.of_trace ~topo:(topo ()) ~desc:"reports" trace in
  let clock, _ = make_clock () in
  let d = Daemon.create ~clock ~replay ~replay_budget:max_int (topo ()) in
  let step () =
    ignore (Replay.step replay ~now:infinity ~budget:third (Daemon.deploy d))
  in
  let submit what spec =
    match Daemon.handle d (Api.Submit { spec; name = None }) with
    | Api.Accepted info -> (
        match Daemon.handle d (Api.Status info.Intent.i_id) with
        | Api.Intent_status { info = now; _ } ->
            checki what now.Intent.i_reports info.Intent.i_reports;
            info.Intent.i_reports
        | other -> Alcotest.fail (Api.response_summary other))
    | other -> Alcotest.fail (Api.response_summary other)
  in
  checki "q1 starts with no reports" 0 (submit "q1" (Api.Catalog 1));
  step ();
  checki "a DSL intent submitted mid-replay has none" 0
    (submit "DSL mid-replay"
       (Api.Dsl
          "filter(proto == udp) | map(dip) | reduce(dip, count) | \
           filter(count > 100) | map(dip)"));
  step ();
  (match Daemon.handle d (Api.Withdraw 1) with
  | Api.Withdrawn_ok _ -> ()
  | other -> Alcotest.fail (Api.response_summary other));
  checkb "re-submitted q1 sees the reports of its first deployment" true
    (submit "q1 re-submitted" (Api.Catalog 1) > 0)

(* A DSL intent the compiler cannot host: two aggregate predicates in
   one filter (NA045). *)
let uncompilable_dsl =
  "map(dip) | reduce(dip, count) | filter(count > 5, count > 7) | map(dip)"

let error_codes diags =
  List.sort_uniq compare
    (List.filter_map
       (fun g ->
         if g.Newton_analysis.Diag.severity = Newton_analysis.Diag.Error then
           Some g.Newton_analysis.Diag.code
         else None)
       diags)

(* Every front-end gives one verdict: a daemon submit (placed on
   linear:4, analysed against the deployed set) and the CLI's
   single-switch admission of the same query ([Check.admit], no peers)
   accept and refuse the same intents with the same error codes. *)
let test_one_verdict_for_every_front_end () =
  let daemon spec =
    match Daemon.handle (make_daemon ()) (Api.Submit { spec; name = None }) with
    | Api.Accepted info -> (true, error_codes info.Intent.i_diags)
    | Api.Refused { diags; _ } -> (false, error_codes diags)
    | other -> Alcotest.fail (Api.response_summary other)
  in
  let cli query =
    match Newton_analysis.Check.admit query with
    | Ok (_, diags) -> (true, error_codes diags)
    | Error diags -> (false, error_codes diags)
  in
  let same what spec query =
    let ((accepted, codes) as verdict) = daemon spec in
    checkb (what ^ ": same verdict") true (verdict = cli query);
    (accepted, codes)
  in
  List.iter
    (fun n ->
      checkb
        (Printf.sprintf "Q%d accepted" n)
        true
        (same (Printf.sprintf "Q%d" n) (Api.Catalog n)
           (Newton_query.Catalog.by_id n)
        = (true, [])))
    (List.init 17 (fun i -> i + 1));
  let dsl text =
    match Newton_query.Parser.parse_result ~id:100 ~name:"adhoc0" text with
    | Ok q -> same text (Api.Dsl text) q
    | Error m -> Alcotest.fail m
  in
  let refused_with code (accepted, codes) =
    checkb (code ^ " refuses") false accepted;
    checkb (code ^ " named") true (List.mem code codes)
  in
  refused_with "NA030" (dsl rejectable_dsl);
  refused_with "NA045" (dsl uncompilable_dsl)

(* ---------------- client input buffering ---------------- *)

let feed pending s = Daemon.take_lines pending (Bytes.of_string s) (String.length s)

let lines_of = function
  | Ok lines -> lines
  | Error `Line_too_long -> Alcotest.fail "unexpected line_too_long"

let test_take_lines_split () =
  let pending = Buffer.create 16 in
  Alcotest.(check (list string)) "partial line held" [] (lines_of (feed pending "li"));
  Alcotest.(check (list string))
    "split line joined, next one drained" [ "list"; "info 1" ]
    (lines_of (feed pending "st\ninfo 1\nwith"));
  checks "tail kept" "with" (Buffer.contents pending);
  Alcotest.(check (list string))
    "tail completes" [ "withdraw 2"; "" ] (lines_of (feed pending "draw 2\n\n"));
  checki "nothing pending" 0 (Buffer.length pending)

let test_take_lines_cap () =
  let pending = Buffer.create 16 in
  let cap = Daemon.max_line_bytes in
  checki "cap is 1 MiB" (1 lsl 20) cap;
  (* exactly the cap without a newline is still a pending line *)
  Alcotest.(check (list string)) "cap bytes pending" []
    (lines_of (feed pending (String.make cap 'x')));
  checkb "cap+1 bytes without a newline refused" true
    (feed pending "x" = Error `Line_too_long);
  (* one read of cap+1 bytes, and a complete line over the cap *)
  checkb "one cap+1 read refused" true
    (feed (Buffer.create 16) (String.make (cap + 1) 'x') = Error `Line_too_long);
  checkb "complete over-long line refused" true
    (feed (Buffer.create 16) (String.make (cap + 1) 'x' ^ "\n") = Error `Line_too_long)

let suite =
  [
    Alcotest.test_case "lifecycle happy path" `Quick test_lifecycle_happy_path;
    Alcotest.test_case "no active without placed" `Quick
      test_no_active_without_placed;
    Alcotest.test_case "terminals have no successors" `Quick
      test_terminals_have_no_successors;
    Alcotest.test_case "failed reachable from non-terminals" `Quick
      test_failed_reachable_from_non_terminals;
    Alcotest.test_case "tokenize plain" `Quick test_tokenize_plain;
    Alcotest.test_case "tokenize quotes" `Quick test_tokenize_quotes;
    Alcotest.test_case "tokenize errors" `Quick test_tokenize_errors;
    Alcotest.test_case "request codec round-trips" `Quick
      test_request_roundtrips;
    Alcotest.test_case "response codec round-trips" `Quick
      test_response_roundtrips;
    Alcotest.test_case "info time precision" `Quick test_info_time_precision;
    Alcotest.test_case "request of tokens" `Quick test_request_of_tokens;
    Alcotest.test_case "submit/withdraw lifecycle" `Quick
      test_submit_withdraw_lifecycle;
    Alcotest.test_case "status returns the lifecycle history" `Quick
      test_status_history;
    Alcotest.test_case "rejected intent fails with diags" `Quick
      test_rejected_intent_fails_with_diags;
    Alcotest.test_case "unknown ids are errors" `Quick
      test_unknown_ids_are_errors;
    Alcotest.test_case "handle_line text and json" `Quick
      test_handle_line_text_and_json;
    Alcotest.test_case "shutdown sets stopping" `Quick
      test_shutdown_sets_stopping;
    Alcotest.test_case "accepted reports match status" `Quick
      test_accepted_reports_match_status;
    Alcotest.test_case "one verdict for every front-end" `Quick
      test_one_verdict_for_every_front_end;
    Alcotest.test_case "churn matches static deploy" `Quick
      test_churn_matches_static;
    Alcotest.test_case "replay budget bounds step" `Quick
      test_replay_budget_bounds_step;
    Alcotest.test_case "take_lines joins split lines" `Quick test_take_lines_split;
    Alcotest.test_case "take_lines caps a pending line" `Quick test_take_lines_cap;
  ]
