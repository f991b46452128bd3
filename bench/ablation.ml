(** Ablation studies for Newton's design choices (not paper figures).

    (a) Layout capacity: module suites a 12-stage pipeline accommodates
        under the naive vs. the compact layout, verified against the
        per-stage resource budgets (the claim behind Table 3).
    (b) Sketch depth/width trade-off: Q1 accuracy when the same register
        budget is arranged as more-rows-narrower vs. fewer-rows-wider.
    (c) Register sharing under churn: fragmentation and capacity of the
        state-bank allocator as queries come and go.
    (d) ECMP state scatter: CQE's accuracy cost when a multi-flow
        aggregate's packets hash onto different paths (the §7
        state-dispersion limitation). *)

open Common
open Newton_dataplane

(* ---------------- (a) layout capacity ---------------- *)

let layout_capacity () =
  banner "Ablation (a): pipeline capacity, naive vs compact layout";
  let fit_suites per_stage_components =
    (* Fill a 12-stage pipeline stage by stage, placing components until
       a stage rejects one. *)
    let sw = Switch.create ~id:0 () in
    let placed = ref 0 in
    (try
       for stage = 0 to Switch.num_stages sw - 1 do
         List.iteri
           (fun i cost ->
             Switch.place sw ~stage ~name:(Printf.sprintf "c%d_%d" stage i) cost;
             incr placed)
           per_stage_components
       done
     with Stage.Stage_full _ -> ());
    !placed
  in
  let naive =
    (* one module per stage: cycle K,H,S,R *)
    fit_suites [ Module_cost.naive_per_stage ]
  in
  let compact = fit_suites [ Module_cost.suite ] in
  let t = T.create ~aligns:[ T.Left; T.Right; T.Right ]
      [ "layout"; "placements (12 stages)"; "suites" ] in
  T.add_row t [ "naive (1 module/stage)"; string_of_int naive; string_of_int (naive / 4) ];
  T.add_row t [ "compact (K+H+S+R/stage)"; string_of_int compact; string_of_int compact ];
  T.print t;
  note "compact layout quadruples the module suites one pipeline can host";
  (* How many more suites until a stage resource saturates? *)
  let budget = Resource.stage_budget in
  let s = Module_cost.suite in
  note "per-stage suite headroom: SALU %.1fx, SRAM %.1fx, TCAM %.1fx"
    (budget.Resource.salu /. s.Resource.salu)
    (budget.Resource.sram /. s.Resource.sram)
    (budget.Resource.tcam /. s.Resource.tcam)

(* ---------------- (b) sketch depth/width ---------------- *)

let depth_width () =
  banner "Ablation (b): Q1 accuracy, same registers arranged depth x width";
  let trace =
    Newton_trace.Gen.generate
      ~attacks:
        [ Newton_trace.Attack.Syn_flood
            { victim = Newton_trace.Attack.host_of 1; attackers = 60; syns_per_attacker = 40 } ]
      ~seed:42
      (Newton_trace.Profile.with_flows
         { Newton_trace.Profile.caida_like with mean_flow_pkts = 4.0 }
         20_000)
  in
  let q th = Newton_query.Catalog.q1 ~th () in
  let truth = Newton_query.Ref_eval.evaluate (q 5) (Newton_trace.Gen.packets trace) in
  let t = T.create ~aligns:[ T.Right; T.Right; T.Right; T.Right ]
      [ "depth"; "width"; "accuracy"; "FPR" ] in
  List.iter
    (fun (depth, width) ->
      let options =
        { Newton_compiler.Decompose.default_options with
          reduce_depth = depth; registers = width }
      in
      let device = Newton.Device.create ~options () in
      let _ = Newton.Device.add_query device (q 5) in
      Newton.Device.process_trace device trace;
      let a =
        Newton_runtime.Analyzer.score ~truth
          ~detected:(Newton.Device.reports device)
      in
      T.add_row t
        [ string_of_int depth; string_of_int width;
          Printf.sprintf "%.3f" a.Newton_runtime.Analyzer.precision;
          Printf.sprintf "%.3f" a.Newton_runtime.Analyzer.fpr ])
    (* constant total budget: depth * width = 3072 *)
    [ (1, 3072); (2, 1536); (3, 1024); (4, 768); (6, 512) ];
  T.print t;
  note "a few rows beat one wide row at equal memory; very deep+narrow loses again"

(* ---------------- (c) register sharing under churn ---------------- *)

let register_churn () =
  banner "Ablation (c): state-bank allocator under query churn";
  let alloc = Register_alloc.create ~arrays:4 ~registers_per_array:4096 in
  let rng = Newton_util.Prng.of_int 99 in
  let live = ref [] in
  let rejected = ref 0 in
  let t = T.create ~aligns:[ T.Right; T.Right; T.Right; T.Right; T.Right ]
      [ "churn step"; "live queries"; "allocated"; "fragmentation"; "rejected" ] in
  for step = 1 to 2000 do
    if Newton_util.Prng.bernoulli rng 0.55 || !live = [] then begin
      (* install a query wanting a power-of-two register range *)
      let want = 1 lsl (6 + Newton_util.Prng.int rng 6) (* 64..2048 *) in
      match Register_alloc.alloc alloc ~registers:want with
      | Some r -> live := r :: !live
      | None -> incr rejected
    end
    else begin
      (* remove a random live query *)
      let arr = Array.of_list !live in
      let victim = Newton_util.Prng.choice rng arr in
      Register_alloc.free alloc victim;
      live := List.filter (fun r -> r <> victim) !live
    end;
    if step mod 400 = 0 then
      T.add_row t
        [ string_of_int step;
          string_of_int (List.length !live);
          string_of_int (Register_alloc.allocated_registers alloc);
          Printf.sprintf "%.3f" (Register_alloc.fragmentation alloc);
          string_of_int !rejected ]
  done;
  T.print t;
  note "first-fit + coalescing keeps fragmentation moderate under churn;";
  note "rejections happen only when the pool is genuinely near-full"

(* ---------------- (d) ECMP state scatter ---------------- *)

let ecmp_scatter () =
  banner "Ablation (d): CQE under ECMP path diversity (state dispersion)";
  let topo = Newton_network.Topo.fat_tree 8 in
  let q = Newton_query.Catalog.q4 ~th:40 () in
  let compiled = compile q in
  let stages = compiled.Newton_compiler.Compose.stats.Newton_compiler.Compose.stages in
  let trace =
    Newton_trace.Gen.generate
      ~attacks:
        [ Newton_trace.Attack.Port_scan
            { scanner = Newton_trace.Attack.host_of 2;
              victim = Newton_trace.Attack.host_of 3; ports = 800 } ]
      ~seed:11
      (Newton_trace.Profile.with_flows Newton_trace.Profile.caida_like 1000)
  in
  let t = T.create ~aligns:[ T.Left; T.Right; T.Right; T.Right ]
      [ "deployment"; "slices"; "dataplane reports"; "deferrals" ] in
  List.iter
    (fun (label, per_switch) ->
      let ctl = Newton_controller.Deploy.create topo in
      let _ = Newton_controller.Deploy.deploy ~stages_per_switch:per_switch ctl compiled in
      Newton_trace.Gen.iter
        (fun p ->
          let src =
            Newton_network.Topo.host_of_ip topo
              (Newton_packet.Packet.get p Newton_packet.Field.Src_ip)
          in
          let dst =
            Newton_network.Topo.host_of_ip topo
              (Newton_packet.Packet.get p Newton_packet.Field.Dst_ip)
          in
          Newton_controller.Deploy.process_packet ctl ~src_host:src ~dst_host:dst p)
        trace;
      let m =
        match (List.hd (Newton_controller.Deploy.deployments ctl)).Newton_controller.Deploy.placement with
        | Some p -> Newton_controller.Placement.num_slices p
        | None -> 1
      in
      T.add_row t
        [ label; string_of_int m;
          string_of_int (List.length (Newton_controller.Deploy.all_reports ctl));
          string_of_int (Newton_controller.Deploy.software_deferrals ctl) ])
    [ ("whole query at the edge (M=1)", stages);
      ("2-way CQE", (stages + 1) / 2);
      ("4-way CQE", (stages + 3) / 4) ];
  T.print t;
  note "multi-flow aggregates lose state across ECMP paths when sliced: the";
  note "scanner's probes hash to different routes, splitting the per-source";
  note "count across switches (the paper evaluates CQE on a fixed chain; §7";
  note "acknowledges state dispersion under path changes)"

(* ---------------- (e) scheduler capacity sweep ---------------- *)

let scheduler_sweep () =
  banner "Ablation (e): scheduler admission & allocation vs register pool";
  let demands () =
    List.concat_map
      (fun q ->
        [ Newton_controller.Scheduler.demand ~weight:4.0 q;
          Newton_controller.Scheduler.demand ~weight:1.0 q ])
      [ Newton_query.Catalog.q1 (); Newton_query.Catalog.q4 ();
        Newton_query.Catalog.q5 () ]
  in
  let t =
    T.create ~aligns:[ T.Right; T.Right; T.Right; T.Right; T.Right ]
      [ "register pool"; "admitted"; "rejected"; "pool used";
        "max regs/array" ]
  in
  List.iter
    (fun pool ->
      let plan = Newton_controller.Scheduler.plan ~register_pool:pool (demands ()) in
      let max_regs =
        List.fold_left
          (fun acc (a : Newton_controller.Scheduler.assignment) ->
            max acc a.Newton_controller.Scheduler.registers)
          0 plan.Newton_controller.Scheduler.admitted
      in
      T.add_row t
        [ string_of_int pool;
          string_of_int (List.length plan.Newton_controller.Scheduler.admitted);
          string_of_int (List.length plan.Newton_controller.Scheduler.rejected);
          string_of_int plan.Newton_controller.Scheduler.pool_used;
          string_of_int max_regs ])
    [ 2_000; 8_000; 32_000; 128_000; 512_000 ];
  T.print t;
  maybe_dat t "ablation_scheduler";
  note "admission saturates as the pool grows; the water-fill converts extra";
  note "memory into wider sketches for the heavy queries up to their ceiling"

let run () =
  layout_capacity ();
  depth_width ();
  register_churn ();
  ecmp_scatter ();
  scheduler_sweep ()
