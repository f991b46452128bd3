(* The single-device compiled step's observable output, for a golden
   diff.

   All seventeen catalog intents are installed on one {!Device} and a
   fixed-seed trace carrying the extended attack suite is replayed
   through it three times: once with an unlimited mirror budget, once
   with at most five report exports per window, so the budget's drop
   path runs too, and once with 1000 registers per state bank, so every
   hash range is not a power of two and the H module reduces by [mod].  Each run prints the sorted reports, the K/H/S/R module
   hits, guard stops, emitted/deduped/dropped reports, window rolls,
   and every instance's register-array ALU execution total. *)

module Device = Newton.Device
module Engine = Newton_runtime.Engine
module Stats = Newton_telemetry.Stats
module Register_array = Newton_sketch.Register_array

let packets =
  Newton_trace.Gen.packets
    (Newton_trace.Gen.generate ~attacks:Newton_trace.Attack.extended_suite
       ~seed:21
       (Newton_trace.Profile.with_flows Newton_trace.Profile.caida_like 2_500))

let run ?options name budget =
  let d = Device.create () in
  List.iter
    (fun q -> ignore (Device.add_query ?options d q))
    (Newton_query.Catalog.all () @ Newton_query.Catalog.extras ());
  let engine = Device.engine d in
  Engine.set_report_budget engine budget;
  Array.iter (Device.process_packet d) packets;
  let reports =
    List.sort compare
      (List.map Newton_query.Report.to_string (Device.reports d))
  in
  Printf.printf "== %s: %d packets, %d reports\n" name (Array.length packets)
    (List.length reports);
  List.iter print_endline reports;
  let sink = Engine.sink engine in
  List.iter
    (fun (label, key) -> Printf.printf "%s %d\n" label (Stats.get sink key))
    [ ("module_hits K", Stats.Module_hits_k); ("module_hits H", Stats.Module_hits_h);
      ("module_hits S", Stats.Module_hits_s); ("module_hits R", Stats.Module_hits_r);
      ("guard_stops", Stats.Guard_stops); ("reports_emitted", Stats.Reports_emitted);
      ("reports_deduped", Stats.Reports_deduped);
      ("reports_dropped", Stats.Reports_dropped); ("window_rolls", Stats.Window_rolls) ];
  Printf.printf "dropped_reports %d\n" (Engine.dropped_reports engine);
  List.iter
    (fun inst ->
      let ops =
        List.fold_left
          (fun acc (_, arr) -> acc + Register_array.ops arr)
          0 (Engine.instance_arrays inst)
      in
      Printf.printf "instance %d %s: window %d, reported_keys %d, ops %d\n"
        (Engine.instance_uid inst)
        (Engine.instance_query inst).Newton_query.Ast.name
        (Engine.instance_window inst)
        (Engine.instance_reported_keys inst)
        ops)
    (Engine.instances engine)

let () =
  run "catalog on one device, unlimited budget" None;
  run "catalog on one device, budget 5 per window" (Some 5);
  run
    ~options:{ Newton_compiler.Decompose.default_options with registers = 1000 }
    "catalog on one device, 1000 registers per bank" None
