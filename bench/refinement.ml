(** Derived experiment: iterative prefix refinement cost, Newton vs a
    reload-per-step system (Sonata's dynamic scope refinement, §2.2).

    Both systems walk the same refinement tree (/8 → /16 → /24 → /32
    towards a SYN-flood victim); the difference is the price of each
    step: a millisecond rule install for Newton, a full pipeline reload
    for Sonata — during which the switch forwards (and observes)
    nothing. *)

open Common

let victim = Newton_trace.Attack.host_of 1
let base_id = 700

let trace () =
  Newton_trace.Gen.generate
    ~attacks:
      [ Newton_trace.Attack.Syn_flood
          { victim; attackers = 40; syns_per_attacker = 25 } ]
    ~seed:42
    (Newton_trace.Profile.with_flows Newton_trace.Profile.caida_like 800)

let run () =
  banner "Prefix refinement: rule updates vs reload-per-step (derived)";
  let tr = trace () in
  let device = Newton.Device.create () in
  let root, rules =
    Newton.Reactive.refinement ~base_id ~field:Newton_packet.Field.Dst_ip
      ~levels:[ 8; 16; 24; 32 ] ~th:20 ()
  in
  let _, root_latency = Newton.Device.add_query device root in
  let svc = Newton.Reactive.create device rules in
  Newton.Reactive.process_trace ~step_every:500 svc tr;
  Newton.Reactive.process_trace ~step_every:500 svc tr;
  let found =
    Newton.Device.reports device
    |> List.exists (fun (x : Newton.Report.t) ->
           x.query_id = base_id + 32 && x.keys.(0) = victim)
  in
  let spawned = Newton.Reactive.spawned svc in
  let installs = 1 + List.length spawned in
  let newton_ms =
    List.fold_left
      (fun acc (s : Newton.Reactive.spawned) -> acc +. s.latency)
      root_latency spawned
    *. 1e3
  in
  (* Sonata pays one reload per refinement step. *)
  let reload = Newton_dataplane.Reconfig.reload_outage ~fwd_entries:6000 () in
  let sonata_s = float_of_int installs *. reload in
  let t =
    T.create ~aligns:[ T.Left; T.Right ] [ "metric"; "value" ]
  in
  T.add_row t [ "victim found at /32"; string_of_bool found ];
  T.add_row t [ "refinement queries installed"; string_of_int installs ];
  T.add_row t [ "Newton total reconfiguration"; Printf.sprintf "%.1f ms" newton_ms ];
  T.add_row t
    [ "reload-per-step equivalent (Sonata)"; Printf.sprintf "%.1f s" sonata_s ];
  T.add_row t
    [ "forwarding outage (Newton)";
      Printf.sprintf "%.0f s"
        (Newton_dataplane.Switch.outage_time (Newton.Device.switch device)) ];
  T.print t;
  maybe_dat t "refinement";
  note "the same refinement tree costs milliseconds with rule updates and";
  note "minutes of accumulated outage when every step reloads the pipeline"
