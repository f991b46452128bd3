(** The typed request/response surface of the service daemon.

    Every command and reply is a variant with a stable JSON codec —
    the daemon, the [newton intent] client and the tests all speak
    through this module, so the wire format cannot drift from the
    types.  On the wire a message is one JSON object per line
    (newline-delimited); the daemon also accepts plain operator text
    ("submit q4") tokenized by {!Command} and mapped by
    {!request_of_tokens}. *)

open Newton_util

(* ---------------- requests ---------------- *)

type query_spec = Catalog of int | Dsl of string

type stats_format = Json_format | Prometheus_format

type request =
  | Submit of { spec : query_spec; name : string option }
  | Withdraw of int
  | List_intents
  | Status of int
  | Stats of stats_format
  | Fail_switch of int
  | Repair_switch of int
  | Shutdown

let spec_to_string = function
  | Catalog n -> Printf.sprintf "q%d" n
  | Dsl s -> s

(* "q<digits>" reads as a catalog reference, anything else as DSL
   text; the DSL grammar has no bare q<N> atom, so the two cannot
   collide. *)
let spec_of_string s =
  if
    String.length s > 1
    && s.[0] = 'q'
    && String.for_all (fun c -> c >= '0' && c <= '9')
         (String.sub s 1 (String.length s - 1))
  then Catalog (int_of_string (String.sub s 1 (String.length s - 1)))
  else Dsl s

let stats_format_to_string = function
  | Json_format -> "json"
  | Prometheus_format -> "prometheus"

let stats_format_of_string = function
  | "json" -> Some Json_format
  | "prometheus" | "prom" -> Some Prometheus_format
  | _ -> None

let request_to_json = function
  | Submit { spec; name } ->
      Json.Obj
        (("cmd", Json.String "submit")
         :: ("query", Json.String (spec_to_string spec))
         :: (match name with
            | None -> []
            | Some n -> [ ("name", Json.String n) ]))
  | Withdraw id ->
      Json.Obj [ ("cmd", Json.String "withdraw"); ("id", Json.Int id) ]
  | List_intents -> Json.Obj [ ("cmd", Json.String "list") ]
  | Status id ->
      Json.Obj [ ("cmd", Json.String "status"); ("id", Json.Int id) ]
  | Stats fmt ->
      Json.Obj
        [
          ("cmd", Json.String "stats");
          ("format", Json.String (stats_format_to_string fmt));
        ]
  | Fail_switch s ->
      Json.Obj [ ("cmd", Json.String "fail-switch"); ("switch", Json.Int s) ]
  | Repair_switch s ->
      Json.Obj [ ("cmd", Json.String "repair-switch"); ("switch", Json.Int s) ]
  | Shutdown -> Json.Obj [ ("cmd", Json.String "shutdown") ]

let int_member name j =
  match Option.bind (Json.member name j) Json.to_int_opt with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "request: missing int member %S" name)

let request_of_json j =
  match Option.bind (Json.member "cmd" j) Json.to_string_opt with
  | None -> Error "request: missing \"cmd\" member"
  | Some cmd -> (
      match cmd with
      | "submit" -> (
          match Option.bind (Json.member "query" j) Json.to_string_opt with
          | None -> Error "submit: missing \"query\" member"
          | Some q ->
              let name =
                Option.bind (Json.member "name" j) Json.to_string_opt
              in
              Ok (Submit { spec = spec_of_string q; name }))
      | "withdraw" -> Result.map (fun id -> Withdraw id) (int_member "id" j)
      | "list" -> Ok List_intents
      | "status" -> Result.map (fun id -> Status id) (int_member "id" j)
      | "stats" -> (
          match Option.bind (Json.member "format" j) Json.to_string_opt with
          | None -> Ok (Stats Json_format)
          | Some f -> (
              match stats_format_of_string f with
              | Some fmt -> Ok (Stats fmt)
              | None -> Error (Printf.sprintf "stats: unknown format %S" f)))
      | "fail-switch" ->
          Result.map (fun s -> Fail_switch s) (int_member "switch" j)
      | "repair-switch" ->
          Result.map (fun s -> Repair_switch s) (int_member "switch" j)
      | "shutdown" -> Ok Shutdown
      | other -> Error (Printf.sprintf "request: unknown command %S" other))

(** Operator-text form, shared by the daemon's plain-text protocol and
    the [newton intent] argument surface:
    {v
      submit q4 | submit <dsl...> [as <name>]
      withdraw <id> | status <id> | list
      stats [json|prom] | fail-switch <s> | repair-switch <s> | shutdown
    v} *)
let request_of_tokens tokens =
  let int_arg what = function
    | [ v ] -> (
        match int_of_string_opt v with
        | Some n -> Ok n
        | None -> Error (Printf.sprintf "%s expects an integer, got %S" what v))
    | _ -> Error (Printf.sprintf "usage: %s <int>" what)
  in
  match tokens with
  | [] -> Error "empty command"
  | "submit" :: rest -> (
      (* a trailing "as NAME" names the intent *)
      let rec split acc = function
        | [ "as"; name ] -> (List.rev acc, Some name)
        | [] -> (List.rev acc, None)
        | x :: tl ->
            let body, name = split (x :: acc) tl in
            (body, name)
      in
      let body, name = split [] rest in
      match body with
      | [] -> Error "usage: submit q<N> | submit <dsl> [as <name>]"
      | _ -> Ok (Submit { spec = spec_of_string (String.concat " " body); name })
      )
  | "withdraw" :: rest ->
      Result.map (fun id -> Withdraw id) (int_arg "withdraw" rest)
  | [ "list" ] -> Ok List_intents
  | "status" :: rest -> Result.map (fun id -> Status id) (int_arg "status" rest)
  | [ "stats" ] -> Ok (Stats Json_format)
  | [ "stats"; f ] -> (
      match stats_format_of_string f with
      | Some fmt -> Ok (Stats fmt)
      | None -> Error (Printf.sprintf "stats: unknown format %S" f))
  | "fail-switch" :: rest ->
      Result.map (fun s -> Fail_switch s) (int_arg "fail-switch" rest)
  | "repair-switch" :: rest ->
      Result.map (fun s -> Repair_switch s) (int_arg "repair-switch" rest)
  | [ "shutdown" ] -> Ok Shutdown
  | cmd :: _ ->
      Error
        (Printf.sprintf
           "unknown command %S (commands: submit, withdraw, list, status, \
            stats, fail-switch, repair-switch, shutdown)"
           cmd)

(* ---------------- responses ---------------- *)

type response =
  | Accepted of Intent.info
  | Refused of { id : int; diags : Newton_analysis.Diag.t list }
  | Withdrawn_ok of { id : int; latency : float }
  | Intent_list of Intent.info list
  | Intent_status of { info : Intent.info; history : (Intent.state * float) list }
  | Stats_payload of { format : stats_format; body : string }
  | Recovery_done of Newton_controller.Deploy.recovery option
  | Stopping
  | Error_resp of { code : string; message : string }

let us_of_s s = Json.Int (int_of_float (Float.round (s *. 1e6)))

let s_of_us = function
  | Json.Int us -> Some (float_of_int us /. 1e6)
  | _ -> None

let recovery_to_json (r : Newton_controller.Deploy.recovery) =
  Json.Obj
    [
      ("switch", Json.Int r.r_switch);
      ( "event",
        Json.String (match r.r_event with `Fail -> "fail" | `Repair -> "repair")
      );
      ("slices_migrated", Json.Int r.r_slices_migrated);
      ("cells_moved", Json.Int r.r_cells_moved);
      ("software_fallbacks", Json.Int r.r_software_fallbacks);
      ("rules_installed", Json.Int r.r_rules_installed);
      ("latency_us", us_of_s r.r_latency);
    ]

let recovery_of_json j =
  let ( let* ) = Result.bind in
  let int_field name =
    match Option.bind (Json.member name j) Json.to_int_opt with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "recovery: missing int %S" name)
  in
  let* r_switch = int_field "switch" in
  let* r_slices_migrated = int_field "slices_migrated" in
  let* r_cells_moved = int_field "cells_moved" in
  let* r_software_fallbacks = int_field "software_fallbacks" in
  let* r_rules_installed = int_field "rules_installed" in
  let* r_latency =
    match Option.bind (Json.member "latency_us" j) s_of_us with
    | Some v -> Ok v
    | None -> Error "recovery: missing \"latency_us\""
  in
  let* r_event =
    match Option.bind (Json.member "event" j) Json.to_string_opt with
    | Some "fail" -> Ok `Fail
    | Some "repair" -> Ok `Repair
    | _ -> Error "recovery: missing or unknown \"event\""
  in
  Ok
    { Newton_controller.Deploy.r_switch; r_event; r_slices_migrated;
      r_cells_moved; r_software_fallbacks; r_rules_installed; r_latency }

let response_to_json = function
  | Accepted info ->
      Json.Obj
        [
          ("ok", Json.Bool true);
          ("kind", Json.String "accepted");
          ("intent", Intent.info_to_json info);
        ]
  | Refused { id; diags } ->
      Json.Obj
        [
          ("ok", Json.Bool false);
          ("kind", Json.String "refused");
          ("id", Json.Int id);
          ("diags", Json.List (List.map Newton_analysis.Diag.to_json diags));
        ]
  | Withdrawn_ok { id; latency } ->
      Json.Obj
        [
          ("ok", Json.Bool true);
          ("kind", Json.String "withdrawn");
          ("id", Json.Int id);
          ("latency_us", us_of_s latency);
        ]
  | Intent_list infos ->
      Json.Obj
        [
          ("ok", Json.Bool true);
          ("kind", Json.String "intents");
          ("intents", Json.List (List.map Intent.info_to_json infos));
        ]
  | Intent_status { info; history } ->
      Json.Obj
        [
          ("ok", Json.Bool true);
          ("kind", Json.String "intent");
          ("intent", Intent.info_to_json info);
          ( "history",
            Json.List
              (List.map
                 (fun (state, at) ->
                   Json.Obj
                     [
                       ("state", Json.String (Intent.state_to_string state));
                       ("at_us", us_of_s at);
                     ])
                 history) );
        ]
  | Stats_payload { format; body } ->
      Json.Obj
        [
          ("ok", Json.Bool true);
          ("kind", Json.String "stats");
          ("format", Json.String (stats_format_to_string format));
          ("body", Json.String body);
        ]
  | Recovery_done r ->
      Json.Obj
        [
          ("ok", Json.Bool true);
          ("kind", Json.String "recovery");
          ( "recovery",
            match r with None -> Json.Null | Some r -> recovery_to_json r );
        ]
  | Stopping ->
      Json.Obj [ ("ok", Json.Bool true); ("kind", Json.String "stopping") ]
  | Error_resp { code; message } ->
      Json.Obj
        [
          ("ok", Json.Bool false);
          ("kind", Json.String "error");
          ("code", Json.String code);
          ("message", Json.String message);
        ]

let response_of_json j =
  let ( let* ) = Result.bind in
  let intent_member () =
    match Json.member "intent" j with
    | None -> Error "response: missing \"intent\""
    | Some i -> Intent.info_of_json i
  in
  match Option.bind (Json.member "kind" j) Json.to_string_opt with
  | None -> Error "response: missing \"kind\" member"
  | Some "accepted" ->
      Result.map (fun i -> Accepted i) (intent_member ())
  | Some "refused" ->
      let* id =
        match Option.bind (Json.member "id" j) Json.to_int_opt with
        | Some id -> Ok id
        | None -> Error "refused: missing \"id\""
      in
      let* diags =
        match Json.member "diags" j with
        | None -> Ok []
        | Some d -> Intent.diags_of_json d
      in
      Ok (Refused { id; diags })
  | Some "withdrawn" ->
      let* id =
        match Option.bind (Json.member "id" j) Json.to_int_opt with
        | Some id -> Ok id
        | None -> Error "withdrawn: missing \"id\""
      in
      let* latency =
        match Option.bind (Json.member "latency_us" j) s_of_us with
        | Some l -> Ok l
        | None -> Error "withdrawn: missing \"latency_us\""
      in
      Ok (Withdrawn_ok { id; latency })
  | Some "intents" -> (
      match Option.bind (Json.member "intents" j) Json.to_list with
      | None -> Error "intents: missing \"intents\" array"
      | Some items ->
          List.fold_left
            (fun acc item ->
              match (acc, Intent.info_of_json item) with
              | Ok is, Ok i -> Ok (i :: is)
              | (Error _ as e), _ -> e
              | _, (Error _ as e) -> e)
            (Ok []) items
          |> Result.map (fun is -> Intent_list (List.rev is)))
  | Some "intent" ->
      let* info = intent_member () in
      let entry e =
        match
          ( Option.bind (Option.bind (Json.member "state" e) Json.to_string_opt)
              Intent.state_of_string,
            Option.bind (Json.member "at_us" e) s_of_us )
        with
        | Some state, Some at -> Ok (state, at)
        | _ -> Error "intent: bad \"history\" entry"
      in
      let* history =
        match Option.bind (Json.member "history" j) Json.to_list with
        | None -> Error "intent: missing \"history\" array"
        | Some items ->
            List.fold_left
              (fun acc e ->
                let* hs = acc in
                let* h = entry e in
                Ok (h :: hs))
              (Ok []) items
            |> Result.map List.rev
      in
      Ok (Intent_status { info; history })
  | Some "stats" ->
      let* format =
        match
          Option.bind
            (Option.bind (Json.member "format" j) Json.to_string_opt)
            stats_format_of_string
        with
        | Some f -> Ok f
        | None -> Error "stats: missing or unknown \"format\""
      in
      let* body =
        match Option.bind (Json.member "body" j) Json.to_string_opt with
        | Some b -> Ok b
        | None -> Error "stats: missing \"body\""
      in
      Ok (Stats_payload { format; body })
  | Some "recovery" -> (
      match Json.member "recovery" j with
      | None | Some Json.Null -> Ok (Recovery_done None)
      | Some r -> Result.map (fun r -> Recovery_done (Some r)) (recovery_of_json r))
  | Some "stopping" -> Ok Stopping
  | Some "error" ->
      let* code =
        match Option.bind (Json.member "code" j) Json.to_string_opt with
        | Some c -> Ok c
        | None -> Error "error: missing \"code\""
      in
      let* message =
        match Option.bind (Json.member "message" j) Json.to_string_opt with
        | Some m -> Ok m
        | None -> Error "error: missing \"message\""
      in
      Ok (Error_resp { code; message })
  | Some other -> Error (Printf.sprintf "response: unknown kind %S" other)

(* ---------------- line framing ---------------- *)

let request_of_line line =
  match Json.of_string line with
  | j -> request_of_json j
  | exception Json.Parse_error { msg; _ } ->
      Error (Printf.sprintf "bad JSON request: %s" msg)

let response_of_line line =
  match Json.of_string line with
  | j -> response_of_json j
  | exception Json.Parse_error { msg; _ } ->
      Error (Printf.sprintf "bad JSON response: %s" msg)

let request_to_line r = Json.to_string (request_to_json r)
let response_to_line r = Json.to_string (response_to_json r)

(* ---------------- operator rendering ---------------- *)

let response_summary = function
  | Accepted info ->
      Printf.sprintf "accepted %s" (Intent.info_to_string info)
  | Refused { id; diags } ->
      Printf.sprintf "refused #%d by static analysis:\n%s" id
        (Newton_analysis.Check.explain diags)
  | Withdrawn_ok { id; latency } ->
      Printf.sprintf "withdrawn #%d in %.1f ms" id (latency *. 1e3)
  | Intent_list [] -> "no intents"
  | Intent_list infos ->
      String.concat "\n" (List.map Intent.info_to_string infos)
  | Intent_status { info; history } ->
      String.concat "\n"
        (Json.to_string (Intent.info_to_json info)
        :: List.map
             (fun (state, at) ->
               Printf.sprintf "  %-9s at %.6f" (Intent.state_to_string state) at)
             history)
  | Stats_payload { body; _ } -> body
  | Recovery_done None -> "no-op (switch already in that state)"
  | Recovery_done (Some r) ->
      Printf.sprintf
        "%s switch %d: %d slices migrated, %d cells moved, %d software \
         fallbacks, %d rules installed, %.2f ms"
        (match r.r_event with `Fail -> "fail" | `Repair -> "repair")
        r.r_switch r.r_slices_migrated r.r_cells_moved r.r_software_fallbacks
        r.r_rules_installed (r.r_latency *. 1e3)
  | Stopping -> "daemon stopping"
  | Error_resp { code; message } -> Printf.sprintf "error (%s): %s" code message

let response_is_ok = function
  | Accepted _ | Withdrawn_ok _ | Intent_list _ | Intent_status _
  | Stats_payload _ | Recovery_done _ | Stopping -> true
  | Refused _ | Error_resp _ -> false
