(** Derived experiment: time-to-detection after an operator decides to
    monitor (not a paper figure; follows from Fig. 10/11).

    A SYN flood runs for the whole trace.  At decision time t_d the
    operator installs Q1.  Newton activates after a rule-install
    latency of milliseconds; Sonata must reload the pipeline — the
    switch forwards (and observes) nothing for the outage, and all
    sketch state restarts.  Detection latency is the gap between the
    decision and the first report. *)

open Common

let trace_duration = 12.0

let mk_trace () =
  Newton_trace.Gen.generate
    ~attacks:
      [ Newton_trace.Attack.Syn_flood
          { victim = Newton_trace.Attack.host_of 1; attackers = 60;
            syns_per_attacker = 300 } ]
    ~seed:42
    { (Newton_trace.Profile.with_flows Newton_trace.Profile.caida_like 1200) with
      duration = trace_duration }

(* Feed only packets visible after [active_from]; return the timestamp
   of the first report. *)
let first_detection ~active_from ~process ~message_count trace =
  let detected = ref None in
  Newton_trace.Gen.iter
    (fun p ->
      if !detected = None && Newton_packet.Packet.ts p >= active_from then begin
        process p;
        if message_count () > 0 then detected := Some (Newton_packet.Packet.ts p)
      end)
    trace;
  !detected

let run () =
  banner "Detection latency: operator decision -> first report (derived)";
  let trace = mk_trace () in
  let t =
    T.create ~aligns:[ T.Right; T.Right; T.Right; T.Right; T.Right ]
      [ "decision t (s)"; "Newton active (+ms)"; "Newton detect (+ms)";
        "Sonata active (+s)"; "Sonata detect (+s)" ]
  in
  List.iter
    (fun t_d ->
      (* Newton: rule install, milliseconds. *)
      let device = Newton.Device.create () in
      let _, install = Newton.Device.add_query device (Newton_query.Catalog.q1 ()) in
      let n_active = t_d +. install in
      let n_detect =
        first_detection ~active_from:n_active
          ~process:(Newton.Device.process_packet device)
          ~message_count:(fun () -> Newton.Device.message_count device)
          trace
      in
      (* Sonata: full reload; the switch is dark for the outage. *)
      let sonata = Newton_baselines.Sonata.create () in
      let outage =
        Newton_baselines.Sonata.install_query sonata
          (compile (Newton_query.Catalog.q1 ()))
      in
      let s_active = t_d +. outage in
      let s_detect =
        first_detection ~active_from:s_active
          ~process:(Newton_baselines.Sonata.process_packet sonata)
          ~message_count:(fun () -> Newton_baselines.Sonata.message_count sonata)
          trace
      in
      let fmt_rel base = function
        | Some ts -> Printf.sprintf "%.1f" ((ts -. base) *. 1e3)
        | None -> "never (trace ended)"
      in
      let fmt_rel_s base = function
        | Some ts -> Printf.sprintf "%.2f" (ts -. base)
        | None -> "never"
      in
      T.add_row t
        [ Printf.sprintf "%.1f" t_d;
          Printf.sprintf "%.1f" (install *. 1e3);
          fmt_rel t_d n_detect;
          Printf.sprintf "%.2f" outage;
          fmt_rel_s t_d s_detect ])
    [ 0.5; 2.0; 4.0 ];
  T.print t;
  maybe_dat t "detection";
  note "Newton reacts within one window of the decision; Sonata is blind for";
  note "the whole reload (and the network forwards nothing meanwhile)"
