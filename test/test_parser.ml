(** Tests for the textual query DSL (lexer + parser). *)

open Newton_packet
open Newton_query
open Newton_query.Ast

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let parse = Parser.parse

(* ---------------- Lexer ---------------- *)

let test_lex_basic () =
  let toks = Lexer.tokenize "filter(a == 1)" in
  checki "token count" 7 (List.length toks) (* incl EOF *)

let test_lex_operators () =
  let toks = Lexer.tokenize "== != > >= < <= | || => & ," in
  Alcotest.(check (list string)) "all operators"
    [ "=="; "!="; ">"; ">="; "<"; "<="; "|"; "||"; "=>"; "&"; ","; "<eof>" ]
    (List.map Lexer.token_to_string toks)

let test_lex_hex () =
  match Lexer.tokenize "0x1F" with
  | [ Lexer.INT 31; Lexer.EOF ] -> ()
  | _ -> Alcotest.fail "hex literal"

let test_lex_ip () =
  match Lexer.tokenize "10.200.0.5" with
  | [ Lexer.IP ip; Lexer.EOF ] -> checki "ip value" 0x0AC80005 ip
  | _ -> Alcotest.fail "ip literal"

let test_lex_dotted_field () =
  match Lexer.tokenize "tcp.flags" with
  | [ Lexer.IDENT "tcp"; Lexer.DOT; Lexer.IDENT "flags"; Lexer.EOF ] -> ()
  | _ -> Alcotest.fail "dotted field"

let test_lex_rejects_garbage () =
  checkb "rejects @" true
    (try ignore (Lexer.tokenize "map(@)"); false with Lexer.Lex_error _ -> true)

let test_lex_amp_and_double_amp () =
  match Lexer.tokenize "a && b & 1" with
  | [ Lexer.IDENT "a"; Lexer.AMP; Lexer.IDENT "b"; Lexer.AMP; Lexer.INT 1; Lexer.EOF ] -> ()
  | _ -> Alcotest.fail "&& and & both lex to AMP"

(* ---------------- Parser: primitives ---------------- *)

let test_parse_filter_eq () =
  let q = parse "filter(proto == udp) | map(dip)" in
  match List.hd q.branches with
  | Filter [ Cmp { field = Field.Proto; op = Eq; value = 17; _ } ] :: _ -> ()
  | _ -> Alcotest.fail "filter shape"

let test_parse_filter_aliases () =
  let q = parse "filter(tcp.flags == syn) | map(dip)" in
  match List.hd q.branches with
  | Filter [ Cmp { field = Field.Tcp_flags; value = 2; _ } ] :: _ -> ()
  | _ -> Alcotest.fail "syn alias"

let test_parse_filter_masked () =
  let q = parse "filter(tcp.flags & 0x1 == 1) | map(dip)" in
  match List.hd q.branches with
  | Filter [ Cmp { mask = 1; value = 1; op = Eq; _ } ] :: _ -> ()
  | _ -> Alcotest.fail "masked predicate"

let test_parse_filter_conjunction () =
  let q = parse "filter(proto == tcp && dport == 22) | map(dip)" in
  (match List.hd q.branches with
  | Filter preds :: _ -> checki "two predicates" 2 (List.length preds)
  | _ -> Alcotest.fail "shape");
  (* comma also works as a separator *)
  let q2 = parse "filter(proto == tcp, dport == 22) | map(dip)" in
  match List.hd q2.branches with
  | Filter preds :: _ -> checki "comma separator" 2 (List.length preds)
  | _ -> Alcotest.fail "shape"

let test_parse_filter_ip_literal () =
  let q = parse "filter(dip == 10.200.0.5) | map(sip)" in
  match List.hd q.branches with
  | Filter [ Cmp { field = Field.Dst_ip; value = 0x0AC80005; _ } ] :: _ -> ()
  | _ -> Alcotest.fail "ip literal predicate"

let test_parse_map_keys () =
  let q = parse "map(sip, dport)" in
  match List.hd q.branches with
  | [ Map [ k1; k2 ] ] ->
      checkb "sip" true (k1.field = Field.Src_ip);
      checkb "dport" true (k2.field = Field.Dst_port)
  | _ -> Alcotest.fail "map keys"

let test_parse_key_mask () =
  let q = parse "map(dip & 0xFFFFFF00)" in
  match List.hd q.branches with
  | [ Map [ k ] ] -> checki "prefix mask" 0xFFFFFF00 k.mask
  | _ -> Alcotest.fail "masked key"

let test_parse_distinct () =
  let q = parse "distinct(sip, dport) | map(sip) | reduce(sip, count)" in
  match List.hd q.branches with
  | Distinct ks :: _ -> checki "two keys" 2 (List.length ks)
  | _ -> Alcotest.fail "distinct"

let test_parse_reduce_aggs () =
  let count = parse "reduce(dip, count)" in
  (match List.hd count.branches with
  | [ Reduce { agg = Count; _ } ] -> ()
  | _ -> Alcotest.fail "count agg");
  let sum = parse "reduce(dip, sum payload_len)" in
  (match List.hd sum.branches with
  | [ Reduce { agg = Sum_field Field.Payload_len; _ } ] -> ()
  | _ -> Alcotest.fail "sum agg");
  let mx = parse "reduce(dip, max len)" in
  match List.hd mx.branches with
  | [ Reduce { agg = Max_field Field.Pkt_len; _ } ] -> ()
  | _ -> Alcotest.fail "max agg"

let test_parse_threshold () =
  let q = parse "reduce(dip, count) | filter(count > 30) | map(dip)" in
  match List.hd q.branches with
  | [ _; Filter [ Result_cmp { op = Gt; value = 30 } ]; _ ] -> ()
  | _ -> Alcotest.fail "threshold filter"

(* ---------------- Parser: whole queries ---------------- *)

let test_parse_q1_equivalent () =
  let q =
    parse
      "filter(proto == tcp && tcp.flags == syn) | map(dip) | reduce(dip, \
       count) | filter(count > 30) | map(dip)"
  in
  checkb "valid" true (is_valid q);
  (* Same structure as the catalog's Q1. *)
  let q1 = Catalog.q1 ~th:30 () in
  checki "same primitive count" (num_primitives q1) (num_primitives q)

let test_parse_combine_sub () =
  let q =
    parse
      "filter(tcp.flags == syn) | map(dip) | reduce(dip, count) || \
       filter(tcp.flags & 0x1 == fin) | map(dip) | reduce(dip, count) => \
       sub(count > 25)"
  in
  checki "two branches" 2 (List.length q.branches);
  match q.combine with
  | Some { op = Sub; threshold = Result_cmp { value = 25; _ } } -> ()
  | _ -> Alcotest.fail "combine clause"

let test_parse_combine_min_pair () =
  let base =
    "map(dip) | reduce(dip, count) || map(sip) | reduce(sip, count) => "
  in
  (match (parse (base ^ "min(count > 5)")).combine with
  | Some { op = Min; _ } -> ()
  | _ -> Alcotest.fail "min");
  match (parse (base ^ "pair(count > 5)")).combine with
  | Some { op = Pair; _ } -> ()
  | _ -> Alcotest.fail "pair"

let test_parsed_query_compiles_and_runs () =
  let q =
    Parser.parse ~id:77
      "filter(proto == udp && dport == 123) | map(dip, sip) | distinct(dip, \
       sip) | map(dip) | reduce(dip, count) | filter(count > 35) | map(dip)"
  in
  let trace =
    Newton_trace.Gen.generate
      ~attacks:
        [ Newton_trace.Attack.Udp_ddos
            { victim = Newton_trace.Attack.host_of 5; attackers = 80; pkts_per_attacker = 15 } ]
      ~seed:3
      (Newton_trace.Profile.with_flows Newton_trace.Profile.caida_like 500)
  in
  let device = Newton.Device.create () in
  let _ = Newton.Device.add_query device q in
  Newton.Device.process_trace device trace;
  checkb "parsed query detects the DDoS" true
    (Newton.Device.message_count device > 0)

let test_parse_errors () =
  let bad s =
    match Parser.parse_result s with Ok _ -> false | Error _ -> true
  in
  checkb "unknown primitive" true (bad "explode(dip)");
  checkb "unknown field" true (bad "map(dipp)");
  checkb "reduce without agg" true (bad "reduce(dip)");
  checkb "missing combine" true (bad "map(dip) || map(sip)");
  checkb "field threshold in combine" true
    (bad "map(dip) | reduce(dip, count) || map(sip) | reduce(sip, count) => sub(dip > 1)");
  checkb "trailing tokens" true (bad "map(dip) extra");
  checkb "count filter before reduce" true (bad "filter(count > 5) | map(dip)");
  checkb "empty input" true (bad "")

let test_parse_roundtrip_all_catalog () =
  (* Every catalog query re-expressed in the DSL parses to the same
     structure (primitive counts and combine ops). *)
  let dsl =
    [ (1, "filter(proto == tcp && tcp.flags == syn) | map(dip) | reduce(dip, count) | filter(count > 30) | map(dip)");
      (3, "map(sip, dip) | distinct(sip, dip) | map(sip) | reduce(sip, count) | filter(count > 60) | map(sip)");
      (6, "filter(proto == tcp && tcp.flags == syn) | map(dip) | reduce(dip, count) || filter(proto == tcp && tcp.flags & 0x1 == 1) | map(dip) | reduce(dip, count) => sub(count > 25)") ]
  in
  List.iter
    (fun (id, text) ->
      let q = parse text in
      let cat = Catalog.by_id id in
      checki (Printf.sprintf "Q%d primitive count" id) (num_primitives cat) (num_primitives q);
      checkb (Printf.sprintf "Q%d combine" id) true
        ((q.combine = None) = (cat.combine = None)))
    dsl

let qcheck_parser_total =
  QCheck.Test.make ~count:300 ~name:"parser: total on arbitrary printable input"
    QCheck.(string_gen_of_size Gen.(int_range 0 60) Gen.printable)
    (fun s ->
      match Parser.parse_result s with Ok _ | Error _ -> true)

let qcheck_lexer_total =
  QCheck.Test.make ~count:300 ~name:"lexer: total on arbitrary printable input"
    QCheck.(string_gen_of_size Gen.(int_range 0 80) Gen.printable)
    (fun s ->
      match Lexer.tokenize s with
      | _ -> true
      | exception Lexer.Lex_error _ -> true
      | exception Parser.Parse_error _ -> true)

(* ---------------- Printer (DSL round-trips) ---------------- *)

let test_printer_roundtrips_catalog () =
  List.iter
    (fun q ->
      let text = Printer.to_dsl q in
      let q' = Parser.parse ~window:q.window text in
      checkb
        (Printf.sprintf "Q%d branches survive print/parse" q.id)
        true
        (q'.branches = q.branches);
      checkb
        (Printf.sprintf "Q%d combine survives print/parse" q.id)
        true
        (q'.combine = q.combine))
    (Catalog.all () @ Catalog.extras ())

let test_printer_masked_keys () =
  let q = parse "map(dip & 0xFFFFFF00) | reduce(dip & 0xFFFFFF00, sum len) | filter(count > 5) | map(dip & 0xFFFFFF00)" in
  let q' = Parser.parse (Printer.to_dsl q) in
  checkb "masked keys round-trip" true (q'.branches = q.branches)

let suite =
  [
    ("lex basic", `Quick, test_lex_basic);
    ("lex operators", `Quick, test_lex_operators);
    ("lex hex", `Quick, test_lex_hex);
    ("lex ip", `Quick, test_lex_ip);
    ("lex dotted field", `Quick, test_lex_dotted_field);
    ("lex rejects garbage", `Quick, test_lex_rejects_garbage);
    ("lex amp variants", `Quick, test_lex_amp_and_double_amp);
    ("parse filter eq", `Quick, test_parse_filter_eq);
    ("parse filter aliases", `Quick, test_parse_filter_aliases);
    ("parse filter masked", `Quick, test_parse_filter_masked);
    ("parse filter conjunction", `Quick, test_parse_filter_conjunction);
    ("parse filter ip literal", `Quick, test_parse_filter_ip_literal);
    ("parse map keys", `Quick, test_parse_map_keys);
    ("parse key mask", `Quick, test_parse_key_mask);
    ("parse distinct", `Quick, test_parse_distinct);
    ("parse reduce aggs", `Quick, test_parse_reduce_aggs);
    ("parse threshold", `Quick, test_parse_threshold);
    ("parse q1 equivalent", `Quick, test_parse_q1_equivalent);
    ("parse combine sub", `Quick, test_parse_combine_sub);
    ("parse combine min/pair", `Quick, test_parse_combine_min_pair);
    ("parsed query compiles and runs", `Quick, test_parsed_query_compiles_and_runs);
    ("parse errors", `Quick, test_parse_errors);
    ("parse roundtrip catalog", `Quick, test_parse_roundtrip_all_catalog);
    ("printer roundtrips catalog", `Quick, test_printer_roundtrips_catalog);
    ("printer masked keys", `Quick, test_printer_masked_keys);
    QCheck_alcotest.to_alcotest qcheck_parser_total;
    QCheck_alcotest.to_alcotest qcheck_lexer_total;
  ]
