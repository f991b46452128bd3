(** The long-running controller daemon.

    Owns a {!Newton_controller.Deploy.t} plus the intent table, and
    exposes one pure entry point — {!handle} : request -> response —
    that the socket loop, the tests and the bench all share.  The
    socket loop ({!serve}) speaks newline-delimited JSON (and a
    plain-text operator fallback via {!Command}) over a Unix or TCP
    socket, and interleaves request handling with bounded replay steps
    so intents install and withdraw while traffic is flowing. *)

module Deploy = Newton_controller.Deploy
module Stats = Newton_telemetry.Stats
module Snapshot = Newton_telemetry.Snapshot
module Export = Newton_telemetry.Export

type t = {
  deploy : Deploy.t;
  stages_per_switch : int;
  replay : Replay.t option;
  replay_budget : int;
  sink : Stats.sink;  (* service-level counters, stage="service" *)
  intents : (int, Intent.t) Hashtbl.t;
  query_ids : (int, unit) Hashtbl.t;  (* query ids any intent has used *)
  mutable order : int list;  (* submission order, newest first *)
  mutable next_id : int;
  mutable stopping : bool;
  clock : unit -> float;
}

let create ?(clock = Unix.gettimeofday) ?(stages_per_switch = 12)
    ?(replay_budget = 2048) ?replay topo =
  {
    deploy = Deploy.create topo;
    stages_per_switch;
    replay;
    replay_budget;
    sink = Stats.create ();
    intents = Hashtbl.create 16;
    query_ids = Hashtbl.create 16;
    order = [];
    next_id = 1;
    stopping = false;
    clock;
  }

let deploy t = t.deploy
let stopping t = t.stopping
let replay t = t.replay

(* DSL intents get query ids far above the catalog range so their
   reports never collide with catalog queries. *)
let dsl_query_id id = 1000 + id

let resolve_spec t ~name spec =
  match spec with
  | Api.Catalog n -> (
      match Newton_query.Catalog.find n with
      | Some q -> Ok q
      | None -> Error (Printf.sprintf "unknown catalog query q%d" n))
  | Api.Dsl text ->
      let id = dsl_query_id t.next_id in
      let name =
        match name with Some n -> n | None -> Printf.sprintf "intent-%d" t.next_id
      in
      Newton_query.Parser.parse_result ~id ~name text

(* Reports per query id, computed once per list/status request. *)
let report_counts t =
  let counts = Hashtbl.create 16 in
  List.iter
    (fun r ->
      let q = r.Newton_query.Report.query_id in
      Hashtbl.replace counts q (1 + Option.value ~default:0 (Hashtbl.find_opt counts q)))
    (Deploy.reconciled_reports t.deploy);
  fun query_id -> Option.value ~default:0 (Hashtbl.find_opt counts query_id)

let intent_info counts intent =
  Intent.info ~reports:(counts intent.Intent.query.Newton_query.Ast.id) intent

let intents t =
  let counts = report_counts t in
  List.rev_map (fun id -> intent_info counts (Hashtbl.find t.intents id)) t.order

(* must_transition: lifecycle edges the daemon takes are legal by
   construction; a refusal here is a daemon bug, so it is loud. *)
let must_transition intent ~now state =
  match Intent.transition intent ~now state with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Daemon: " ^ msg)

let fail_intent t intent ~now diags =
  intent.Intent.diags <- diags;
  must_transition intent ~now Intent.Failed;
  Stats.bump t.sink Stats.Intents_failed 1;
  Api.Refused { id = intent.Intent.id; diags }

let submit t ~spec ~name =
  let now = t.clock () in
  match resolve_spec t ~name spec with
  | Error msg -> Api.Error_resp { code = "bad-query"; message = msg }
  | Ok query ->
      let id = t.next_id in
      t.next_id <- id + 1;
      let intent =
        Intent.create ~id ~name:query.Newton_query.Ast.name
          ~source:(Api.spec_to_string spec) ~now query
      in
      Hashtbl.replace t.intents id intent;
      t.order <- id :: t.order;
      Stats.bump t.sink Stats.Intents_submitted 1;
      let query_id = query.Newton_query.Ast.id in
      let reused = Hashtbl.mem t.query_ids query_id in
      Hashtbl.replace t.query_ids query_id ();
      (* One gate: compile, place and analyse against the deployed set
         once; its diagnostics ride on the intent whatever happens
         next, and its compiled program is the one installed. *)
      let verdict =
        Deploy.admit t.deploy ~stages_per_switch:t.stages_per_switch
          query
      in
      intent.Intent.diags <- (match verdict with Ok (_, d) | Error d -> d);
      must_transition intent ~now:(t.clock ()) Intent.Analyzed;
      match
        Result.bind verdict (fun (admitted, _) -> Deploy.install t.deploy admitted)
      with
      | Error diags -> fail_intent t intent ~now:(t.clock ()) diags
      | Ok (uid, latency) ->
          must_transition intent ~now:(t.clock ()) Intent.Placed;
          intent.Intent.uid <- Some uid;
          intent.Intent.install_latency <- Some latency;
          (match Deploy.find_deployment t.deploy uid with
          | Some d -> intent.Intent.rules <- d.Deploy.installed_rules
          | None -> ());
          must_transition intent ~now:(t.clock ()) Intent.Active;
          (* Nothing has replayed since the install, so only a query id
             an earlier intent used can have reports yet. *)
          let counts = if reused then report_counts t else fun _ -> 0 in
          Api.Accepted (intent_info counts intent)

let withdraw t id =
  match Hashtbl.find_opt t.intents id with
  | None ->
      Api.Error_resp
        { code = "unknown-intent"; message = Printf.sprintf "no intent #%d" id }
  | Some intent -> (
      match (intent.Intent.state, intent.Intent.uid) with
      | Intent.Active, Some uid ->
          let latency = Option.value ~default:0. (Deploy.undeploy t.deploy uid) in
          intent.Intent.uninstall_latency <- Some latency;
          must_transition intent ~now:(t.clock ()) Intent.Withdrawn;
          Stats.bump t.sink Stats.Intents_withdrawn 1;
          Api.Withdrawn_ok { id; latency }
      | state, _ ->
          Api.Error_resp
            {
              code = "bad-state";
              message =
                Printf.sprintf "intent #%d is %s, only active intents withdraw"
                  id
                  (Intent.state_to_string state);
            })

let snapshot t =
  let service = Snapshot.of_sink t.sink in
  let replayed =
    match t.replay with
    | None -> Snapshot.empty
    | Some r ->
        Snapshot.of_sink ~labels:[ ("stage", "replay") ] (Replay.stats r)
  in
  Snapshot.merge_all [ Deploy.snapshot t.deploy; service; replayed ]

let stats_body t fmt =
  let snap = snapshot t in
  match fmt with
  | Api.Json_format -> Export.to_json_string snap
  | Api.Prometheus_format -> Export.to_prometheus snap

let handle t request =
  match request with
  | Api.Submit { spec; name } -> submit t ~spec ~name
  | Api.Withdraw id -> withdraw t id
  | Api.List_intents -> Api.Intent_list (intents t)
  | Api.Status id -> (
      match Hashtbl.find_opt t.intents id with
      | Some intent ->
          Api.Intent_status
            { info = intent_info (report_counts t) intent; history = Intent.history intent }
      | None ->
          Api.Error_resp
            {
              code = "unknown-intent";
              message = Printf.sprintf "no intent #%d" id;
            })
  | Api.Stats fmt -> Api.Stats_payload { format = fmt; body = stats_body t fmt }
  | Api.Fail_switch s -> (
      match Deploy.fail_switch t.deploy s with
      | r -> Api.Recovery_done r
      | exception Invalid_argument msg ->
          Api.Error_resp { code = "bad-switch"; message = msg })
  | Api.Repair_switch s -> (
      match Deploy.repair_switch t.deploy s with
      | r -> Api.Recovery_done r
      | exception Invalid_argument msg ->
          Api.Error_resp { code = "bad-switch"; message = msg })
  | Api.Shutdown ->
      t.stopping <- true;
      Api.Stopping

(* One wire line -> one response.  A '{' prefix selects the JSON
   protocol; anything else is operator text through the shared
   tokenizer. *)
let handle_line t line =
  let parsed =
    let trimmed = String.trim line in
    if trimmed = "" then Error "empty line"
    else if trimmed.[0] = '{' then Api.request_of_line trimmed
    else
      Result.bind (Command.tokenize trimmed) Api.request_of_tokens
  in
  match parsed with
  | Ok request -> handle t request
  | Error message -> Api.Error_resp { code = "bad-request"; message }

let replay_step t =
  match t.replay with
  | None -> 0
  | Some r ->
      Replay.step r ~now:(t.clock ()) ~budget:t.replay_budget t.deploy

(* ---------------- the socket loop ---------------- *)

type listen = Unix_socket of string | Tcp of int

type client = { fd : Unix.file_descr; buf : Buffer.t }

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then
      match Unix.write fd b off (n - off) with
      | written -> go (off + written)
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ()
  in
  go 0

let max_line_bytes = 1 lsl 20

(* Append [len] fresh bytes of [chunk] to a client's pending line and
   drain the lines they complete.  Only the fresh bytes are scanned for
   '\n', and each line is copied out once. *)
let take_lines buf chunk len =
  let rec newline i = if i >= len || Bytes.get chunk i = '\n' then i else newline (i + 1) in
  let rec go start acc =
    let i = newline start in
    if Buffer.length buf + (i - start) > max_line_bytes then Error `Line_too_long
    else begin
      Buffer.add_subbytes buf chunk start (i - start);
      if i >= len then Ok (List.rev acc)
      else begin
        let line = Buffer.contents buf in
        Buffer.clear buf;
        go (i + 1) (line :: acc)
      end
    end
  in
  go 0 []

let serve ?(log = ignore) t listen =
  (match Sys.os_type with
  | "Unix" -> Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  | _ -> ());
  let sock, cleanup =
    match listen with
    | Unix_socket path ->
        if Sys.file_exists path then Sys.remove path;
        let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.bind sock (Unix.ADDR_UNIX path);
        (sock, fun () -> if Sys.file_exists path then Sys.remove path)
    | Tcp port ->
        let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt sock Unix.SO_REUSEADDR true;
        Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        (sock, fun () -> ())
  in
  Unix.listen sock 16;
  log
    (Printf.sprintf "listening on %s"
       (match listen with
       | Unix_socket p -> p
       | Tcp p -> Printf.sprintf "127.0.0.1:%d" p));
  let clients = ref [] in
  let close_client c =
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    clients := List.filter (fun c' -> c' != c) !clients
  in
  let scratch = Bytes.create 65536 in
  let respond c resp = write_all c.fd (Api.response_to_line resp ^ "\n") in
  let serve_client c n =
    match take_lines c.buf scratch n with
    | Ok lines ->
        List.iter
          (fun line -> if String.trim line <> "" then respond c (handle_line t line))
          lines
    | Error `Line_too_long ->
        respond c
          (Api.Error_resp
             { code = "line_too_long";
               message = Printf.sprintf "request line exceeds %d bytes" max_line_bytes });
        close_client c
  in
  while not t.stopping do
    let timeout =
      match t.replay with
      | None -> 0.2
      | Some r -> (
          if Replay.finished r then 0.2
          else
            match Replay.next_due_in r ~now:(t.clock ()) with
            | None -> 0.2
            | Some dt -> Float.min 0.2 (Float.max 0. dt))
    in
    let fds = sock :: List.map (fun c -> c.fd) !clients in
    let readable, _, _ =
      match Unix.select fds [] [] timeout with
      | r -> r
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    List.iter
      (fun fd ->
        if fd = sock then begin
          let cfd, _ = Unix.accept sock in
          clients := { fd = cfd; buf = Buffer.create 256 } :: !clients
        end
        else
          match List.find_opt (fun c -> c.fd = fd) !clients with
          | None -> ()
          | Some c -> (
              match Unix.read fd scratch 0 (Bytes.length scratch) with
              | 0 -> close_client c
              | n -> serve_client c n
              | exception Unix.Unix_error (Unix.ECONNRESET, _, _) ->
                  close_client c))
      readable;
    ignore (replay_step t)
  done;
  List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) !clients;
  (try Unix.close sock with Unix.Unix_error _ -> ());
  cleanup ();
  log "daemon stopped"
