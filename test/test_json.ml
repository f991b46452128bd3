(** Tests for the minimal JSON implementation. *)

open Newton_util

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let test_parse_scalars () =
  checkb "null" true (Json.of_string "null" = Json.Null);
  checkb "true" true (Json.of_string "true" = Json.Bool true);
  checkb "false" true (Json.of_string "false" = Json.Bool false);
  checkb "int" true (Json.of_string "42" = Json.Int 42);
  checkb "negative" true (Json.of_string "-7" = Json.Int (-7));
  checkb "float" true (Json.of_string "3.25" = Json.Float 3.25);
  checkb "exponent" true (Json.of_string "1e3" = Json.Float 1000.0)

let test_parse_strings () =
  checkb "plain" true (Json.of_string {|"hello"|} = Json.String "hello");
  checkb "escapes" true
    (Json.of_string {|"a\"b\\c\nd\te"|} = Json.String "a\"b\\c\nd\te");
  checkb "unicode ascii" true (Json.of_string {|"A"|} = Json.String "A")

let test_parse_containers () =
  checkb "empty array" true (Json.of_string "[]" = Json.List []);
  checkb "empty object" true (Json.of_string "{}" = Json.Obj []);
  (match Json.of_string {| [1, "two", [3], {"k": 4}] |} with
  | Json.List [ Json.Int 1; Json.String "two"; Json.List [ Json.Int 3 ];
                Json.Obj [ ("k", Json.Int 4) ] ] -> ()
  | _ -> Alcotest.fail "nested structure");
  match Json.of_string {| {"a": 1, "b": [true, null]} |} with
  | Json.Obj [ ("a", Json.Int 1); ("b", Json.List [ Json.Bool true; Json.Null ]) ] -> ()
  | _ -> Alcotest.fail "object shape"

let test_roundtrip () =
  let v =
    Json.Obj
      [ ("table", Json.String "newton_k_s0_m0");
        ("priority", Json.Int 10);
        ("match", Json.List [ Json.Obj [ ("value", Json.Int 6) ] ]);
        ("weird", Json.String "quote\" backslash\\ tab\t") ]
  in
  checkb "print/parse roundtrip" true (Json.of_string (Json.to_string v) = v)

let test_rejects_malformed () =
  let bad s =
    match Json.of_string s with
    | _ -> false
    | exception Json.Parse_error _ -> true
  in
  checkb "unterminated string" true (bad {|"abc|});
  checkb "trailing garbage" true (bad "1 2");
  checkb "missing colon" true (bad {|{"a" 1}|});
  checkb "missing bracket" true (bad "[1, 2");
  checkb "bare word" true (bad "flurp");
  checkb "empty" true (bad "")

let test_accessors () =
  let v = Json.of_string {| {"x": 5, "s": "y", "l": [1]} |} in
  checki "member int" 5 (Option.get (Json.to_int_opt (Option.get (Json.member "x" v))));
  checks "member string" "y"
    (Option.get (Json.to_string_opt (Option.get (Json.member "s" v))));
  checki "member list" 1 (List.length (Option.get (Json.to_list (Option.get (Json.member "l" v)))));
  checkb "absent member" true (Json.member "nope" v = None)

let test_parses_rule_documents () =
  (* The generator's own output parses. *)
  let c = Newton_compiler.Compose.compile (Newton_query.Catalog.by_id 6) in
  let json = Newton_p4gen.Rules.to_json (Newton_p4gen.Rules.entries_exn c) in
  match Json.of_string json with
  | Json.List entries ->
      checki "all entries parsed"
        (List.length (Newton_p4gen.Rules.entries_exn c))
        (List.length entries)
  | _ -> Alcotest.fail "expected an array"

let gen_json =
  QCheck.Gen.(
    sized_size (int_range 0 3) @@ fix (fun self n ->
        if n = 0 then
          oneof
            [ return Newton_util.Json.Null;
              map (fun b -> Newton_util.Json.Bool b) bool;
              map (fun i -> Newton_util.Json.Int i) (int_range (-1000000) 1000000);
              map (fun s -> Newton_util.Json.String s)
                (string_size ~gen:printable (int_range 0 12)) ]
        else
          oneof
            [ map (fun l -> Newton_util.Json.List l)
                (list_size (int_range 0 4) (self (n - 1)));
              map
                (fun kvs ->
                  (* keys must be unique for roundtrip equality *)
                  let _, kvs =
                    List.fold_left
                      (fun (i, acc) (k, v) -> (i + 1, (Printf.sprintf "%s_%d" k i, v) :: acc))
                      (0, []) kvs
                  in
                  Newton_util.Json.Obj (List.rev kvs))
                (list_size (int_range 0 4)
                   (pair (string_size ~gen:printable (int_range 0 8)) (self (n - 1)))) ]))

let qcheck_json_roundtrip =
  QCheck.Test.make ~count:300 ~name:"json: print/parse roundtrip"
    (QCheck.make ~print:Newton_util.Json.to_string gen_json)
    (fun v -> Newton_util.Json.of_string (Newton_util.Json.to_string v) = v)

let suite =
  [
    ("parse scalars", `Quick, test_parse_scalars);
    ("parse strings", `Quick, test_parse_strings);
    ("parse containers", `Quick, test_parse_containers);
    ("roundtrip", `Quick, test_roundtrip);
    ("rejects malformed", `Quick, test_rejects_malformed);
    ("accessors", `Quick, test_accessors);
    ("parses rule documents", `Quick, test_parses_rule_documents);
    QCheck_alcotest.to_alcotest qcheck_json_roundtrip;
  ]
