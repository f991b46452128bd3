(** The first-class intent lifecycle.

    Every query submitted to the service daemon becomes an intent with
    a daemon-assigned id and a state machine:

    {v
      Submitted --> Analyzed --> Placed --> Active --> Withdrawn
          |             |           |          |
          +-------------+-----------+----------+--> Failed
    v}

    [Withdrawn] and [Failed] are terminal.  Transitions are checked —
    an intent can never become [Active] without having been [Placed] —
    and every transition is timestamped in {!history}.  Diagnostics
    from the static-analysis admission gate ride on the intent, as do
    the install/uninstall latencies the dataplane reported; [status]
    returns those with the state and times ({!info}) and the history. *)

open Newton_util

type state = Submitted | Analyzed | Placed | Active | Failed | Withdrawn

let state_to_string = function
  | Submitted -> "submitted"
  | Analyzed -> "analyzed"
  | Placed -> "placed"
  | Active -> "active"
  | Failed -> "failed"
  | Withdrawn -> "withdrawn"

let state_of_string = function
  | "submitted" -> Some Submitted
  | "analyzed" -> Some Analyzed
  | "placed" -> Some Placed
  | "active" -> Some Active
  | "failed" -> Some Failed
  | "withdrawn" -> Some Withdrawn
  | _ -> None

let all_states = [ Submitted; Analyzed; Placed; Active; Failed; Withdrawn ]

let is_terminal = function Failed | Withdrawn -> true | _ -> false

(* The legal edges of the lifecycle.  Failure is reachable from every
   non-terminal state (parse, analysis, placement and install can each
   refuse); the happy path is strictly ordered. *)
let can_transition from into =
  match (from, into) with
  | Submitted, Analyzed
  | Analyzed, Placed
  | Placed, Active
  | Active, Withdrawn -> true
  | (Submitted | Analyzed | Placed | Active), Failed -> true
  | _ -> false

type t = {
  id : int;
  name : string;
  query : Newton_query.Ast.t;
  source : string;
  mutable state : state;
  mutable diags : Newton_analysis.Diag.t list;
  mutable uid : int option;
  mutable rules : int;
  mutable install_latency : float option;
  mutable uninstall_latency : float option;
  submitted_at : float;
  mutable installed_at : float option;
  mutable finished_at : float option;
  mutable history : (state * float) list; (* reverse order *)
}

let create ~id ~name ~source ~now query =
  {
    id;
    name;
    query;
    source;
    state = Submitted;
    diags = [];
    uid = None;
    rules = 0;
    install_latency = None;
    uninstall_latency = None;
    submitted_at = now;
    installed_at = None;
    finished_at = None;
    history = [ (Submitted, now) ];
  }

let transition t ~now into =
  if not (can_transition t.state into) then
    Error
      (Printf.sprintf "illegal intent transition %s -> %s"
         (state_to_string t.state) (state_to_string into))
  else begin
    t.state <- into;
    t.history <- (into, now) :: t.history;
    (match into with
    | Active -> t.installed_at <- Some now
    | Failed | Withdrawn -> t.finished_at <- Some now
    | _ -> ());
    Ok ()
  end

let history t = List.rev t.history

(* ---------------- the wire-facing summary ---------------- *)

type info = {
  i_id : int;
  i_name : string;
  i_query_id : int;
  i_source : string;
  i_state : state;
  i_rules : int;
  i_reports : int;
  i_warnings : int;
  i_errors : int;
  i_submitted_at : float;
  i_installed_at : float option;
  i_finished_at : float option;
  i_install_latency : float option;
  i_uninstall_latency : float option;
  i_diags : Newton_analysis.Diag.t list;
}

let info ?(reports = 0) t =
  let count sev =
    List.length
      (List.filter (fun d -> d.Newton_analysis.Diag.severity = sev) t.diags)
  in
  {
    i_id = t.id;
    i_name = t.name;
    i_query_id = t.query.Newton_query.Ast.id;
    i_source = t.source;
    i_state = t.state;
    i_rules = t.rules;
    i_reports = reports;
    i_warnings = count Newton_analysis.Diag.Warning;
    i_errors = count Newton_analysis.Diag.Error;
    i_submitted_at = t.submitted_at;
    i_installed_at = t.installed_at;
    i_finished_at = t.finished_at;
    i_install_latency = t.install_latency;
    i_uninstall_latency = t.uninstall_latency;
    i_diags = t.diags;
  }

(* Times and latencies travel as integer microseconds: the minimal JSON
   layer renders floats with %g, which would truncate epoch timestamps
   to six significant digits. *)
let us_of_s s = Json.Int (int_of_float (Float.round (s *. 1e6)))
let s_of_us = function
  | Json.Int us -> Some (float_of_int us /. 1e6)
  | _ -> None

let opt_us = function None -> Json.Null | Some s -> us_of_s s

let info_to_json i =
  Json.Obj
    [
      ("id", Json.Int i.i_id);
      ("name", Json.String i.i_name);
      ("query_id", Json.Int i.i_query_id);
      ("source", Json.String i.i_source);
      ("state", Json.String (state_to_string i.i_state));
      ("rules", Json.Int i.i_rules);
      ("reports", Json.Int i.i_reports);
      ("warnings", Json.Int i.i_warnings);
      ("errors", Json.Int i.i_errors);
      ("submitted_at_us", us_of_s i.i_submitted_at);
      ("installed_at_us", opt_us i.i_installed_at);
      ("finished_at_us", opt_us i.i_finished_at);
      ("install_latency_us", opt_us i.i_install_latency);
      ("uninstall_latency_us", opt_us i.i_uninstall_latency);
      ("diags", Json.List (List.map Newton_analysis.Diag.to_json i.i_diags));
    ]

(* ---------------- decoding ---------------- *)

let mem name j = Json.member name j

let int_field name j =
  match Option.bind (mem name j) Json.to_int_opt with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "intent info: missing int %S" name)

let string_field name j =
  match Option.bind (mem name j) Json.to_string_opt with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "intent info: missing string %S" name)

let time_field name j =
  match Option.bind (mem name j) s_of_us with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "intent info: missing time %S" name)

let opt_time_field name j =
  match mem name j with
  | None | Some Json.Null -> Ok None
  | Some v -> (
      match s_of_us v with
      | Some s -> Ok (Some s)
      | None -> Error (Printf.sprintf "intent info: bad time %S" name))

let severity_of_string = function
  | "info" -> Some Newton_analysis.Diag.Info
  | "warning" -> Some Newton_analysis.Diag.Warning
  | "error" -> Some Newton_analysis.Diag.Error
  | _ -> None

(* Inverse of [Diag.span_to_string]; spans the printer cannot emit are
   decode errors. *)
let span_of_string s =
  let tail pfx =
    int_of_string_opt (String.sub s (String.length pfx)
                         (String.length s - String.length pfx))
  in
  let has pfx =
    String.length s > String.length pfx
    && String.sub s 0 (String.length pfx) = pfx
  in
  match s with
  | "query" -> Some Newton_analysis.Diag.Query
  | "combine" -> Some Newton_analysis.Diag.Combine
  | _ when has "stage" ->
      Option.map (fun n -> Newton_analysis.Diag.Stage n) (tail "stage")
  | _ when has "sw" ->
      Option.map (fun n -> Newton_analysis.Diag.Switch n) (tail "sw")
  | _ when has "cut" ->
      Option.map (fun n -> Newton_analysis.Diag.Cut n) (tail "cut")
  | _ when has "b" -> (
      match String.index_opt s '.' with
      | None -> Option.map (fun n -> Newton_analysis.Diag.Branch n) (tail "b")
      | Some dot -> (
          let b = String.sub s 1 (dot - 1) in
          let p = String.sub s (dot + 2) (String.length s - dot - 2) in
          match (int_of_string_opt b, int_of_string_opt p) with
          | Some branch, Some prim ->
              Some (Newton_analysis.Diag.Prim { branch; prim })
          | _ -> None))
  | _ -> None

let diag_of_json j =
  let ( let* ) = Result.bind in
  let* code = string_field "code" j in
  let* sev_s = string_field "severity" j in
  let* query_id = int_field "query_id" j in
  let* query_name = string_field "query_name" j in
  let* span_s = string_field "span" j in
  let* message = string_field "message" j in
  let hint =
    match mem "hint" j with
    | Some (Json.String h) -> Some h
    | _ -> None
  in
  match (severity_of_string sev_s, span_of_string span_s) with
  | Some severity, Some span ->
      Ok
        {
          Newton_analysis.Diag.code;
          severity;
          query_id;
          query_name;
          span;
          message;
          hint;
          (* witness packets are embedded only on request and are not
             part of the lifecycle-API diag schema *)
          witness = None;
        }
  | None, _ -> Error (Printf.sprintf "diag: unknown severity %S" sev_s)
  | _, None -> Error (Printf.sprintf "diag: unknown span %S" span_s)

let diags_of_json j =
  match Json.to_list j with
  | None -> Error "diags: expected an array"
  | Some items ->
      List.fold_left
        (fun acc item ->
          match (acc, diag_of_json item) with
          | Ok ds, Ok d -> Ok (d :: ds)
          | (Error _ as e), _ -> e
          | _, (Error _ as e) -> e)
        (Ok []) items
      |> Result.map List.rev

let info_of_json j =
  let ( let* ) = Result.bind in
  let* i_id = int_field "id" j in
  let* i_name = string_field "name" j in
  let* i_query_id = int_field "query_id" j in
  let* i_source = string_field "source" j in
  let* state_s = string_field "state" j in
  let* i_rules = int_field "rules" j in
  let* i_reports = int_field "reports" j in
  let* i_warnings = int_field "warnings" j in
  let* i_errors = int_field "errors" j in
  let* i_submitted_at = time_field "submitted_at_us" j in
  let* i_installed_at = opt_time_field "installed_at_us" j in
  let* i_finished_at = opt_time_field "finished_at_us" j in
  let* i_install_latency = opt_time_field "install_latency_us" j in
  let* i_uninstall_latency = opt_time_field "uninstall_latency_us" j in
  let* i_diags =
    match mem "diags" j with
    | None -> Ok []
    | Some d -> diags_of_json d
  in
  match state_of_string state_s with
  | None -> Error (Printf.sprintf "intent info: unknown state %S" state_s)
  | Some i_state ->
      Ok
        {
          i_id;
          i_name;
          i_query_id;
          i_source;
          i_state;
          i_rules;
          i_reports;
          i_warnings;
          i_errors;
          i_submitted_at;
          i_installed_at;
          i_finished_at;
          i_install_latency;
          i_uninstall_latency;
          i_diags;
        }

let info_to_string i =
  Printf.sprintf "#%d %-10s %-22s rules=%d reports=%d%s" i.i_id
    (state_to_string i.i_state)
    i.i_name i.i_rules i.i_reports
    (if i.i_errors > 0 then Printf.sprintf " errors=%d" i.i_errors
     else if i.i_warnings > 0 then Printf.sprintf " warnings=%d" i.i_warnings
     else "")
