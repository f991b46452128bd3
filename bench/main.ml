(** Experiment harness: regenerates every table and figure of the
    paper's evaluation (§6).  Run all experiments with no arguments, or
    pass experiment names (fig7 fig10 fig11 fig12 fig13 fig14 fig15
    fig16 fig17 table3 p4sim micro) to run a subset. *)

let experiments =
  [ ("fig7", Fig7.run);
    ("fig10", Fig10.run);
    ("fig11", Fig11.run);
    ("fig12", Fig12.run);
    ("fig13", Fig13.run);
    ("fig14", Fig14.run);
    ("fig15", Fig15.run);
    ("fig16", Fig16.run);
    ("fig17", Fig17.run);
    ("table3", Table3.run);
    ("ablation", Ablation.run);
    ("detection", Detection.run);
    ("refinement", Refinement.run);
    ("parallel", Parallel.run);
    ("analysis", Analysis.run);
    ("p4sim", P4sim.run);
    ("space", Space.run);
    ("micro", Microbench.run) ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: [] -> List.map fst experiments
    | _ :: args -> args
    | [] -> []
  in
  print_endline "Newton (CoNEXT'20) — evaluation reproduction harness";
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some run ->
          let t0 = Unix.gettimeofday () in
          run ();
          Printf.printf "  [%s completed in %.1fs]\n%!" name (Unix.gettimeofday () -. t0)
      | None ->
          Printf.eprintf "unknown experiment %s (available: %s)\n" name
            (String.concat " " (List.map fst experiments));
          exit 1)
    requested
