(** Figure 11: Newton query installation / removal delay, Q1–Q9,
    100 repetitions each (paper: all operations complete within 20 ms;
    Q1 installs in as little as 5 ms). *)

open Common

let repetitions = 100

let run () =
  banner "Figure 11: query install/remove delay (ms, 100 repetitions)";
  let t =
    T.create
      ~aligns:[ T.Left; T.Right; T.Right; T.Right; T.Right; T.Right; T.Right; T.Right ]
      [ "Query"; "rules"; "install mean"; "install p5"; "install p95";
        "remove mean"; "remove p5"; "remove p95" ]
  in
  let worst = ref 0.0 in
  List.iter
    (fun q ->
      let installs = ref [] and removes = ref [] and rules = ref 0 in
      let device = Newton.Device.create () in
      for _ = 1 to repetitions do
        let h, lat_in = Newton.Device.add_query device q in
        rules := Newton.Device.monitor_rules device;
        let lat_rm = Option.get (Newton.Device.remove_query device h) in
        installs := (lat_in *. 1e3) :: !installs;
        removes := (lat_rm *. 1e3) :: !removes
      done;
      let st = Newton_util.Stats.mean !installs and rt = Newton_util.Stats.mean !removes in
      worst := max !worst (Newton_util.Stats.percentile 95.0 !installs);
      T.add_row t
        [ Printf.sprintf "Q%d" q.Newton_query.Ast.id;
          string_of_int !rules;
          Printf.sprintf "%.2f" st;
          Printf.sprintf "%.2f" (Newton_util.Stats.percentile 5.0 !installs);
          Printf.sprintf "%.2f" (Newton_util.Stats.percentile 95.0 !installs);
          Printf.sprintf "%.2f" rt;
          Printf.sprintf "%.2f" (Newton_util.Stats.percentile 5.0 !removes);
          Printf.sprintf "%.2f" (Newton_util.Stats.percentile 95.0 !removes) ])
    (all_queries ());
  T.print t;
  maybe_dat t "fig11";
  note "paper: all operations within 20 ms; measured p95 worst case %.2f ms" !worst;
  note "forwarding is never interrupted (rule-level reconfiguration)"
