(** The [intent_churn] workload: one closed-loop client driving an
    in-process controller daemon on [Topo.linear 4] in CQE mode.

    Sixteen intents stay resident.  Q1 and Q4 are survivors, never
    withdrawn; the other fifteen catalog intents rotate first in, first
    out, fourteen resident at a time.  Each operation withdraws the
    oldest rotating intent and submits the next one; both travel as
    JSON lines through [Daemon.handle_line], the intent as DSL text
    from [Printer.to_dsl].  A small synthetic trace replays in one
    bounded [Daemon.replay_step] before every operation.

    The loop runs whole rotations (every rotating intent submitted
    once) until the run's seconds are spent, so each rotation's
    expensive admissions weigh the same in every run.  It also stops
    when the trace has too few packets left to feed one more rotation,
    so the traffic between operations never runs dry; every metric is
    taken per rotation or per operation, so a run that stops early
    reads the same. *)

module Json = Newton_util.Json
module Api = Newton_service.Api
module Daemon = Newton_service.Daemon
module Replay = Newton_service.Replay
module Intent = Newton_service.Intent
module Deploy = Newton_controller.Deploy
module Ast = Newton_query.Ast

let survivors = [ 1; 4 ]

(* Q17 rotates last, so it is the first intent submitted after the
   preload: set-up never pays its admission. *)
let rotating = [ 2; 3; 5; 6; 7; 8; 9; 10; 11; 12; 13; 14; 15; 16; 17 ]
let resident_rotating = 14
let stages_per_switch = 12

(** Packets the daemon replays per step between operations. *)
let replay_budget = 256

(** Background flows of the replayed trace (default attack suite):
    about 210k packets, enough for about 27 rotations. *)
let flows = 15_000

(** Cold set-ups, each in a process of its own (see {!Child}), before
    the first rotation and after every rotation: [setup_s] is their
    median.  Spreading them over the run lets a swing in the host's
    speed weigh on them as on the other metrics. *)
let setups_per_rotation = 3

(** Whole rotations a run makes at least, so [submit_tail_ms] has ten
    samples beyond its percentile; the peak RSS is read after exactly
    this many, so it does not grow with the run's length. *)
let min_rotations = 7

(** Packets one rotation replays: a step before each withdraw and each
    submit. *)
let rotation_packets = 2 * List.length rotating * replay_budget
let topo () = Newton_network.Topo.linear 4
let now = Outcome.now

let catalog id =
  match Newton_query.Catalog.find id with
  | Some q -> q
  | None -> invalid_arg (Printf.sprintf "no catalog query Q%d" id)

let dsl id = Newton_query.Printer.to_dsl (catalog id)

(* The DSL text parses back to a query that prints the same. *)
let round_trips id =
  let text = dsl id in
  match Newton_query.Parser.parse_result text with
  | Ok q -> Newton_query.Printer.to_dsl q = text
  | Error _ -> false

let submit_line id =
  Api.request_to_line
    (Api.Submit { spec = Api.Dsl (dsl id); name = Some (catalog id).Ast.name })

let withdraw_line intent = Api.request_to_line (Api.Withdraw intent)

let generate seed =
  Newton_trace.Gen.generate ~attacks:Newton_trace.Attack.default_suite ~seed
    (Newton_trace.Profile.with_flows Newton_trace.Profile.caida_like flows)

let daemon packets =
  let replay = Replay.of_packets ~topo:(topo ()) ~desc:"churn" packets in
  Daemon.create ~stages_per_switch ~replay_budget ~replay (topo ())

type counts = {
  mutable attempted : int;
  mutable failed : int;
  mutable refused : int;
  mutable withdraw_failed : int;
}

let submit counts d id =
  counts.attempted <- counts.attempted + 1;
  match Daemon.handle_line d (submit_line id) with
  | Api.Accepted info -> Some info
  | other ->
      counts.failed <- counts.failed + 1;
      counts.refused <- counts.refused + 1;
      prerr_endline
        (Printf.sprintf "intent_churn: Q%d: %s" id (Api.response_summary other));
      None

(* Set-up: create the daemon and preload the sixteen residents.
   Returns the daemon, the survivors' query ids and the FIFO of
   (intent id, catalog id). *)
let setup counts packets =
  let d = daemon packets in
  let survivor_qids =
    List.filter_map
      (fun id -> Option.map (fun i -> i.Intent.i_query_id) (submit counts d id))
      survivors
  in
  let fifo = Queue.create () in
  List.iteri
    (fun i id ->
      if i < resident_rotating then
        match submit counts d id with
        | Some info -> Queue.push (info.Intent.i_id, id) fifo
        | None -> ())
    rotating;
  (d, survivor_qids, fifo)

(** One cold set-up, made by [newton_perf setup] in a fresh process:
    the set-up's seconds and the number of refused submits.  The daemon
    replays nothing, so its trace is left out: set-up never reads it. *)
let cold_setup () =
  let counts = { attempted = 0; failed = 0; refused = 0; withdraw_failed = 0 } in
  let t0 = now () in
  ignore (setup counts [||]);
  let seconds = now () -. t0 in
  [ seconds; float_of_int counts.refused ]

(* Shadow calls before a traced submit: each layer the daemon's submit
   goes through, timed on its own over the same text and daemon
   state.  Returns the child spans under [parent]. *)
let shadow_submit spans ~parent d id =
  let deploy = Daemon.deploy d in
  let time name f =
    let start = now () in
    let v = f () in
    let stop = now () in
    let sid = Span.add spans ~parent name ~start ~stop in
    (v, { Span.id = sid; name; parent; start; stop; counts = [] })
  in
  let q, parse =
    time "query.parse" (fun () ->
        match Newton_query.Parser.parse_result (dsl id) with
        | Ok q -> q
        | Error m -> failwith ("intent_churn: " ^ m))
  in
  let _, check =
    time "analysis.check" (fun () -> Newton_analysis.Check.check_query q)
  in
  let compiled, compile =
    time "compiler.compile" (fun () -> Newton_compiler.Compose.compile q)
  in
  let placement, place =
    time "controller.place" (fun () ->
        Newton_controller.Placement.place ~enabled:(Deploy.is_enabled deploy)
          ~stages_per_switch ~topo:(Deploy.topo deploy) compiled)
  in
  let deployed =
    List.map
      (fun dep ->
        (dep.Deploy.compiled.Newton_compiler.Compose.query, dep.Deploy.compiled))
      (Deploy.deployments deploy)
  in
  let _, admission =
    time "analysis.admission" (fun () ->
        Newton_analysis.Check.admission
          ~target:(Deploy.target_of_placement placement) ~deployed compiled)
  in
  [ parse; check; compile; place; admission ]

(* Samples of the churn loop, in seconds unless named otherwise. *)
type samples = {
  mutable submit : float list;        (* untraced submits *)
  mutable submit_traced : float list;
  mutable withdraw : float list;
  mutable steps : float list;         (* replay steps *)
  mutable steps_traced : float list;  (* steps right after a traced submit *)
  mutable stepped : int;              (* packets replayed *)
  mutable stepped_traced : int;
  mutable layer : (string * float) list;  (* traced: name -> one sample *)
  mutable rules : int list;
  mutable modeled : float list;       (* modelled install latency *)
}

(* One whole rotation: its operations and seconds, and the packets and
   seconds of its untraced replay steps. *)
type rotation = { ops : int; seconds : float; stepped : int; step_s : float }

let layer_samples s name = List.filter_map (fun (k, v) -> if k = name then Some v else None) s.layer

let churn ~seconds ~trace ~between counts spans d fifo s =
  let next = ref resident_rotating in
  let ops = ref 0 in
  let traced_next = ref trace in
  let t0 = now () in
  let step ~traced =
    let a = now () in
    let n = Daemon.replay_step d in
    let b = now () in
    if traced then begin
      s.steps_traced <- (b -. a) :: s.steps_traced;
      s.stepped_traced <- s.stepped_traced + n
    end
    else begin
      s.steps <- (b -. a) :: s.steps;
      s.stepped <- s.stepped + n
    end
  in
  let rotation () =
    for _ = 1 to List.length rotating do
      let traced = !traced_next in
      step ~traced;
      (* withdraw the oldest rotating intent *)
      (match Queue.take_opt fifo with
      | None -> ()
      | Some (intent, _) ->
          counts.attempted <- counts.attempted + 1;
          let a = now () in
          let r = Daemon.handle_line d (withdraw_line intent) in
          s.withdraw <- (now () -. a) :: s.withdraw;
          incr ops;
          (match r with
          | Api.Withdrawn_ok _ -> ()
          | other ->
              counts.failed <- counts.failed + 1;
              counts.withdraw_failed <- counts.withdraw_failed + 1;
              prerr_endline ("intent_churn: withdraw: " ^ Api.response_summary other)));
      step ~traced;
      (* submit the next one *)
      let id = List.nth rotating (!next mod List.length rotating) in
      incr next;
      let parent = if traced then Span.reserve spans else 0 in
      let children = if traced then shadow_submit spans ~parent d id else [] in
      let a = now () in
      let info = submit counts d id in
      let b = now () in
      incr ops;
      if traced then begin
        ignore
          (Span.add spans ~id:parent ~counts:[ ("query", id) ] "service.submit"
             ~start:a ~stop:b);
        let span = Option.get (Span.find spans parent) in
        s.submit_traced <- (b -. a) :: s.submit_traced;
        s.layer <-
          ("controller.install_self", Span.self_time span (Span.rebase span children))
          :: List.map (fun c -> (c.Span.name, Span.duration c)) children
          @ s.layer
      end
      else s.submit <- (b -. a) :: s.submit;
      (match info with
      | Some i ->
          Queue.push (i.Intent.i_id, id) fifo;
          s.rules <- i.Intent.i_rules :: s.rules;
          Option.iter (fun l -> s.modeled <- l :: s.modeled) i.Intent.i_install_latency
      | None -> ());
      traced_next := trace && not traced
    done
  in
  let replay = Option.get (Daemon.replay d) in
  let rotations = ref [] and peak_rss = ref nan in
  let fed () = Replay.length replay - Replay.position replay >= rotation_packets in
  let timed_out () =
    List.length !rotations >= min_rotations && now () -. t0 >= seconds
  in
  while fed () && not (timed_out ()) do
    let ops0 = !ops and r0 = now () in
    let stepped0 = s.stepped and step_s0 = Stat.sum s.steps in
    rotation ();
    rotations :=
      {
        ops = !ops - ops0;
        seconds = now () -. r0;
        stepped = s.stepped - stepped0;
        step_s = Stat.sum s.steps -. step_s0;
      }
      :: !rotations;
    if List.length !rotations = min_rotations then peak_rss := Rss.peak_mb ();
    between ()
  done;
  (* whether the trace, not the clock, ended the run *)
  let stopped_by_trace = not (timed_out ()) in
  (!ops, List.rev !rotations, !peak_rss, stopped_by_trace)

(* ---------------- zero-loss oracle ---------------- *)

let survivor_reports deploy ids =
  List.filter
    (fun r -> List.mem r.Newton_query.Report.query_id ids)
    (Deploy.reconciled_reports deploy)

(* The survivors deployed first on a fresh controller, under the query
   ids the daemon gave them, over the same packets the churned daemon
   replayed: every report of that static run must also come out of the
   churned one. *)
let static_reference packets ~qids ~upto =
  let deploy = Deploy.create (topo ()) in
  List.iter2
    (fun qid id ->
        let q =
          match Newton_query.Parser.parse_result ~id:qid (dsl id) with
          | Ok q -> q
          | Error m -> failwith ("intent_churn: " ^ m)
        in
        (match
           Deploy.deploy_checked ~mode:`Cqe ~stages_per_switch deploy
             (Newton_compiler.Compose.compile q)
         with
        | Ok _ -> ()
        | Error _ -> failwith "intent_churn: static survivor refused"))
    qids survivors;
  let replay =
    Replay.of_packets ~topo:(topo ()) ~desc:"static" (Array.sub packets 0 upto)
  in
  ignore (Replay.run_to_end replay deploy);
  survivor_reports deploy qids

(* ---------------- the workload ---------------- *)

let ms xs = List.map (fun x -> x *. 1e3) xs

let run ~seed ~seconds ~trace ~dir spans =
  let counts = { attempted = 0; failed = 0; refused = 0; withdraw_failed = 0 } in
  let packets = Newton_trace.Gen.packets (generate seed) in
  let bad_round_trips =
    List.filter (fun id -> not (round_trips id)) (survivors @ rotating)
  in
  let setup_times = ref [] in
  let cold_setups () =
    for _ = 1 to setups_per_rotation do
      match Child.setup ~workload:"intent_churn" ~seed ~dir with
      | [ seconds; refused ] ->
          setup_times := seconds :: !setup_times;
          let refused = int_of_float refused in
          counts.attempted <-
            counts.attempted + List.length survivors + resident_rotating;
          counts.failed <- counts.failed + refused;
          counts.refused <- counts.refused + refused
      | _ -> failwith "intent_churn: malformed set-up child output"
    done
  in
  cold_setups ();
  let d, qids, fifo = setup counts packets in
  let s =
    { submit = []; submit_traced = []; withdraw = []; steps = []; steps_traced = [];
      stepped = 0; stepped_traced = 0; layer = []; rules = []; modeled = [] }
  in
  let ops, rotations, peak_rss, stopped_by_trace =
    churn ~seconds ~trace ~between:cold_setups counts spans d fifo s
  in
  let setup_times = List.rev !setup_times in
  let replayed = Replay.position (Option.get (Daemon.replay d)) in
  let static = static_reference packets ~qids ~upto:replayed in
  let churned = survivor_reports (Daemon.deploy d) qids in
  let lost = (Oracle.diff ~reference:static ~measured:churned).Oracle.missing in
  let attempted = counts.attempted + List.length static + List.length (survivors @ rotating) in
  let failed = counts.failed + lost + List.length bad_round_trips in
  let pps steps n = float_of_int n /. Stat.sum steps in
  let submits = ms s.submit in
  let end_to_end =
    [
      ("setup_s", Stat.median setup_times);
      ("capture_pps", pps s.steps s.stepped);
      ("submit_p50_ms", Stat.median submits);
      ("submit_tail_ms", Stat.percentile submits Metrics.tail_pct);
      ( "intent_ops_per_s",
        float_of_int ops /. Stat.sum (List.map (fun r -> r.seconds) rotations) );
      ("peak_rss_mb", peak_rss);
    ]
  in
  let per_layer =
    if not trace then []
    else
      let med name = Stat.median (ms (layer_samples s name)) in
      let admission = layer_samples s "analysis.admission" in
      let all_steps = s.steps @ s.steps_traced in
      let stepped = s.stepped + s.stepped_traced in
      [
        ("service.submit_ms.p50", Stat.median (ms s.submit_traced));
        ("service.submit_ms.p99", Stat.percentile (ms s.submit_traced) 99.);
        ("query.parse_ms", med "query.parse");
        ("compiler.compile_ms", med "compiler.compile");
        ("analysis.check_ms", med "analysis.check");
        ("analysis.admission_ms.p50", med "analysis.admission");
        ("analysis.admission_ms.max", Newton_util.Stats.max_l (ms admission));
        ("analysis.admission_share", Stat.sum admission /. Stat.sum s.submit_traced);
        ("controller.place_ms", med "controller.place");
        ("controller.install_self_ms", med "controller.install_self");
        ("controller.rules_per_submit", Stat.median (List.map float_of_int s.rules));
        ("controller.modeled_update_ms", Stat.median (ms s.modeled));
        ("service.withdraw_ms.p50", Stat.median (ms s.withdraw));
        ("service.replay_step_ms", Stat.median (ms all_steps));
        (* per rotation, so it does not grow with the run's length *)
        ( "runtime.replay_s",
          Stat.sum all_steps /. float_of_int (List.length rotations) );
        ( "runtime.messages_per_kpkt",
          1000. *. float_of_int (Deploy.message_count (Daemon.deploy d))
          /. float_of_int (max 1 stepped) );
        ( "trace.overhead.capture_pps",
          Outcome.overhead ~lower_is_better:false
            ~traced:(pps s.steps_traced s.stepped_traced)
            ~untraced:(pps s.steps s.stepped) );
        ( "trace.overhead.submit_p50",
          Outcome.overhead ~lower_is_better:true
            ~traced:(Stat.median (ms s.submit_traced))
            ~untraced:(Stat.median submits) );
      ]
  in
  let inputs =
    Json.
      [
        ("seed", Int seed);
        ("flows", Int flows);
        ("packets", Int (Array.length packets));
        ("packets_replayed", Int replayed);
        ("packets_left", Int (Array.length packets - replayed));
        ("rotation_packets", Int rotation_packets);
        ("replay_budget", Int replay_budget);
        ("topology", String "linear:4");
        ("mode", String "cqe");
        ("survivors", List (List.map (fun id -> String (catalog id).Ast.name) survivors));
        ("rotating", List (List.map (fun id -> String (catalog id).Ast.name) rotating));
        ("resident_intents", Int (List.length survivors + resident_rotating));
        ("setups", Int (List.length setup_times));
        ("submits", Int (List.length s.submit + List.length s.submit_traced));
        ("operations", Int ops);
        ("rotations", Int (List.length rotations));
        ("stopped_by_trace", Bool stopped_by_trace);
      ]
    @ Outcome.tail_inputs (List.length s.submit)
    @ Outcome.host_inputs ()
  in
  let checks =
    Json.
      [
        ("setup_ms", List (List.map (fun t -> Float (t *. 1e3)) setup_times));
        ( "rotation_ops_per_s",
          List
            (List.map (fun r -> Float (float_of_int r.ops /. r.seconds)) rotations) );
        ( "rotation_step_pps",
          List
            (List.map (fun r -> Float (float_of_int r.stepped /. r.step_s)) rotations) );
        ("refused_submits", Int counts.refused);
        ("failed_withdraws", Int counts.withdraw_failed);
        ("static_survivor_reports", Int (List.length static));
        ("churned_survivor_reports", Int (List.length churned));
        ("lost_survivor_reports", Int lost);
        ("dsl_round_trip_failures", List (List.map (fun id -> Int id) bad_round_trips));
      ]
  in
  (* The zero-loss check compares something, and the trace fed the
     minimum number of rotations. *)
  let consistent =
    List.length qids = List.length survivors
    && static <> []
    && List.length rotations >= min_rotations
  in
  { Outcome.consistent; attempted; failed; end_to_end; per_layer; inputs; checks }
