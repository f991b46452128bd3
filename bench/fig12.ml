(** Figure 12: monitoring overhead (monitoring messages per raw packet)
    of Newton vs. Sonata, *Flow, TurboFlow, FlowRadar and SCREAM on the
    two trace profiles.  Paper: Sonata and Newton export only
    intent-relevant data and sit two orders of magnitude below the
    generic exporters. *)

open Common

let run_trace name trace =
  let packets = Newton_trace.Gen.packets trace in
  let n = Array.length packets in
  (* Newton: all nine queries installed on one device. *)
  let newton = Newton.Device.create () in
  List.iter (fun q -> ignore (Newton.Device.add_query newton q)) (all_queries ());
  Array.iter (Newton.Device.process_packet newton) packets;
  (* Sonata: same on-data-plane queries (overhead matches Newton). *)
  let sonata = Newton_baselines.Sonata.create () in
  List.iter
    (fun q -> ignore (Newton_baselines.Sonata.install_query sonata (compile q)))
    (all_queries ());
  Array.iter (Newton_baselines.Sonata.process_packet sonata) packets;
  (* Generic exporters. *)
  let tf = Newton_baselines.Turboflow.create () in
  Array.iter (Newton_baselines.Turboflow.process tf) packets;
  Newton_baselines.Turboflow.finish tf;
  let sf = Newton_baselines.Starflow.create () in
  Array.iter (Newton_baselines.Starflow.process sf) packets;
  Newton_baselines.Starflow.finish sf;
  let fr = Newton_baselines.Flowradar.create () in
  Array.iter (Newton_baselines.Flowradar.process fr) packets;
  Newton_baselines.Flowradar.finish fr;
  let sc = Newton_baselines.Scream.create () in
  Array.iter (Newton_baselines.Scream.process sc) packets;
  Newton_baselines.Scream.finish sc;
  let ratio msgs = float_of_int msgs /. float_of_int n in
  [ (name ^ "/Newton", ratio (Newton.Device.message_count newton));
    (name ^ "/Sonata", ratio (Newton_baselines.Sonata.message_count sonata));
    (name ^ "/*Flow", ratio (Newton_baselines.Starflow.messages sf));
    (name ^ "/TurboFlow", ratio (Newton_baselines.Turboflow.messages tf));
    (name ^ "/FlowRadar", ratio (Newton_baselines.Flowradar.messages fr));
    (name ^ "/SCREAM", ratio (Newton_baselines.Scream.messages sc)) ]

let run () =
  banner "Figure 12: monitoring overhead (messages per packet)";
  let rows =
    run_trace "caida" (caida_trace ~flows:8000 ())
    @ run_trace "mawi" (mawi_trace ~flows:8000 ())
  in
  let t = T.create ~aligns:[ T.Left; T.Right ] [ "trace/system"; "msgs/pkt" ] in
  List.iter (fun (k, v) -> T.add_row t [ k; Printf.sprintf "%.5f" v ]) rows;
  T.print t;
  maybe_dat t "fig12";
  let get k = List.assoc k rows in
  note "paper: Newton/Sonata two orders of magnitude below *Flow/TurboFlow";
  note "measured (caida): Newton %.5f vs TurboFlow %.5f (ratio %.0fx), *Flow %.5f (%.0fx)"
    (get "caida/Newton") (get "caida/TurboFlow")
    (get "caida/TurboFlow" /. get "caida/Newton")
    (get "caida/*Flow")
    (get "caida/*Flow" /. get "caida/Newton");
  note "FlowRadar ~1%% of packets at 4096 cells (measured caida: %.4f)"
    (get "caida/FlowRadar")
