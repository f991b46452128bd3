(** The Newton controller: network-wide query deployment and dynamic
    operations.

    Owns one {!Newton_runtime.Engine} (execution) and one
    {!Newton_dataplane.Switch} (resource/timing accounting) per switch,
    plus the software analyzer.  Queries are deployed either with
    cross-switch execution ([`Cqe], the Newton model: slices at depths
    given by Algorithm 2, context threaded through the SP header) or
    sole-switch execution ([`Sole], the baseline of §6.3: the full query
    replicated on every switch, each reporting independently).

    Install/remove latencies follow the runtime-reconfiguration model of
    {!Newton_dataplane.Reconfig}: per-rule driver operations, switches
    updated in parallel — no forwarding interruption, unlike the Sonata
    full-reload path. *)

open Newton_network
open Newton_runtime
open Newton_dataplane

type mode = [ `Cqe | `Sole ]

type deployment = {
  uid : int;
  compiled : Newton_compiler.Compose.t;
  peer : Newton_analysis.Pass.peer; (* what later admissions read, built at install *)
  mode : mode;
  mutable placement : Placement.t option; (* None for `Sole; re-placed on failure *)
  stages_per_switch : int;
  mutable installed_rules : int;
}

(** One switch-failure or repair event with its recovery accounting. *)
type recovery = {
  r_switch : int;
  r_event : [ `Fail | `Repair ];
  r_slices_migrated : int;     (** dataplane-to-dataplane state migrations *)
  r_cells_moved : int;         (** occupied register cells merged *)
  r_software_fallbacks : int;  (** slices degraded to the software engine *)
  r_rules_installed : int;     (** table entries installed by recovery *)
  r_latency : float;           (** slowest switch's reconfiguration time *)
}

type t = {
  topo : Topo.t;
  route : Route.t;
  engines : Engine.t array;
  switches : Switch.t array;
  analyzer : Analyzer.t;
  software : Engine.t; (** CPU continuation for slices beyond the path *)
  mutable deployments : deployment list;
  mutable next_uid : int;
  mutable sp_bytes : int;
  mutable wire_bytes : int;
  mutable packets : int;
  mutable software_status_msgs : int;
  enabled : bool array; (** partial deployment: Newton-enabled switches *)
  c_sink : Newton_telemetry.Stats.sink; (** controller-level counters *)
  mutable recoveries : recovery list; (* reverse order *)
  touched : int array; (* per switch: the last packet number it ran a slice of *)
  path : int array; (* the current packet's switch path *)
  ctx : Ctx.t; (* the current packet's context, reset per deployment *)
  mutable software_packet : int; (* the last packet number the analyzer continued *)
}

(* The module layout is loaded once per switch at initialization (§3
   workflow): every stage hosts one K/H/S/R suite per metadata set.
   Queries then only consume table rules and register ranges.  The
   layout's two suites exactly saturate a stage's SALU and TCAM budgets
   — the physical justification for the Module_cost constants. *)
let place_layout sw =
  for stage = 0 to Switch.num_stages sw - 1 do
    List.iter
      (fun set ->
        List.iter
          (fun kind ->
            Switch.place sw ~stage
              ~name:
                (Printf.sprintf "layout_%s_m%d"
                   (Module_cost.kind_to_string kind) set)
              (Module_cost.cost kind))
          Module_cost.all_kinds)
      [ 0; 1 ]
  done

let create topo =
  let n = Topo.num_switches topo in
  {
    topo;
    route = Route.create topo;
    engines = Array.init n (fun i -> Engine.create ~switch_id:i ());
    switches =
      Array.init n (fun id ->
          let sw = Switch.create ~id () in
          place_layout sw;
          sw);
    analyzer = Analyzer.create ();
    software = Engine.create ~switch_id:(-1) ();
    deployments = [];
    next_uid = 1;
    sp_bytes = 0;
    wire_bytes = 0;
    packets = 0;
    software_status_msgs = 0;
    enabled = Array.make n true;
    c_sink = Newton_telemetry.Stats.create ();
    recoveries = [];
    touched = Array.make n 0;
    path = Array.make (Topo.num_nodes topo) 0;
    ctx = Ctx.create ();
    software_packet = 0;
  }

let topo t = t.topo
let route t = t.route
let engine t s = t.engines.(s)
let switch t s = t.switches.(s)
let analyzer t = t.analyzer
let software_engine t = t.software
let deployments t = t.deployments

let find_deployment t uid = List.find_opt (fun d -> d.uid = uid) t.deployments

(** Partial deployment (§7): mark a switch as legacy (no Newton rules,
    SP headers cannot cross it).  Affects subsequent deploys and packet
    processing; existing deployments keep their installed rules. *)
let set_enabled t s b = t.enabled.(s) <- b

let is_enabled t s = t.enabled.(s)

(* Instance uid scheme: one deployment's slice d on any switch shares
   uid*1000+d so the path executor threads one context across hops. *)
let slice_uid uid d = (uid * 1000) + d

(** Raised by {!deploy} when the static-analysis gate finds
    error-severity diagnostics; nothing is installed. *)
exception Rejected of Newton_analysis.Diag.t list

let () =
  Printexc.register_printer (function
    | Rejected diags ->
        Some
          (Printf.sprintf "deployment rejected by static analysis:\n%s"
             (Newton_analysis.Check.explain diags))
    | _ -> None)

(* Placement facts for the analysis passes, decoupled from
   [Placement.t] so the analysis library needs no controller types. *)
let target_of_placement (p : Placement.t) =
  let max_depth =
    Array.fold_left
      (fun acc ds -> List.fold_left max acc ds)
      0 p.Placement.slices
  in
  Newton_analysis.Pass.target
    ~stages_per_switch:p.Placement.stages_per_switch
    ~num_switches:(Array.length p.Placement.slices)
    ~switch_slices:p.Placement.slices
    ~slice_ranges:p.Placement.slice_stage_ranges ~max_path_depth:max_depth

(* What passed the gate, ready to install: the compiled program and
   the placement the gate judged it with. *)
type admitted = {
  a_compiled : Newton_compiler.Compose.t;
  a_mode : mode;
  a_stages_per_switch : int;
  a_placement : Placement.t option;
}

let place t ~mode ~stages_per_switch compiled =
  match mode with
  | `Sole -> None
  | `Cqe ->
      Some
        (Placement.place
           ~enabled:(fun s -> t.enabled.(s))
           ~stages_per_switch ~topo:t.topo compiled)

(* The admission gate: [analyse] runs the passes once, with the
   placement of the compiled program as its target and the deployed
   intents' peer records, built at their install, as its peers.
   Capacity is judged for the new query alone — saturation by many
   co-resident queries still surfaces at install time, where the
   rollback path handles it.  The verdict is counted on
   the controller sink (stage="analysis" in the snapshot): a refusal
   once, an admission by its warnings. *)
let gate t ~mode ~stages_per_switch analyse =
  let placement = ref None in
  let target compiled =
    placement := place t ~mode ~stages_per_switch compiled;
    Option.map target_of_placement !placement
  in
  match analyse ~target ~peers:(List.map (fun d -> d.peer) t.deployments) with
  | Error diags ->
      Newton_telemetry.Stats.bump t.c_sink
        Newton_telemetry.Stats.Analysis_rejections 1;
      Error diags
  | Ok (compiled, diags) ->
      let _, warnings, _ = Newton_analysis.Check.severity_counts diags in
      if warnings > 0 then
        Newton_telemetry.Stats.bump t.c_sink
          Newton_telemetry.Stats.Analysis_warnings warnings;
      Ok
        ( { a_compiled = compiled; a_mode = mode;
            a_stages_per_switch = stages_per_switch; a_placement = !placement },
          diags )

(** The gate for a query: one {!Newton_analysis.Check.admit} pass that
    compiles it, places the compiled program and analyses it. *)
let admit t ~stages_per_switch query =
  gate t ~mode:`Cqe ~stages_per_switch (fun ~target ~peers ->
      Newton_analysis.Check.admit ~target ~peers query)

(* The gate for a program already compiled. *)
let gate_compiled t ~mode ~stages_per_switch compiled =
  gate t ~mode ~stages_per_switch (fun ~target ~peers ->
      let diags =
        Newton_analysis.Check.admit_compiled ?target:(target compiled) ~peers
          compiled
      in
      if Newton_analysis.Diag.has_errors diags then Error diags
      else Ok (compiled, diags))

(* Install-time capacity overflow rendered as a diagnostic, so the
   result-typed entry points report it as a value.  The code rides the
   NA05x capacity family (docs/ANALYSIS.md): unlike NA050-NA053 it is
   not predicted by a pass but observed against the live module tables,
   where co-resident deployments already hold cells. *)
let exhausted_diag compiled ~stage ~kind =
  Newton_analysis.Diag.make ~code:"NA054" ~severity:Newton_analysis.Diag.Error
    ~span:(Newton_analysis.Diag.Stage stage)
    ~hint:
      "remove or narrow a co-resident deployment, or grant more \
       stages/registers"
    ~query:compiled.Newton_compiler.Compose.query
    (Printf.sprintf
       "install-time capacity: %s module cell exhausted at stage %d; partial \
        installs rolled back" kind stage)

(* Install an admitted deployment at the placement its gate judged.
   Returns (uid, latency in seconds) — the latency is the slowest
   switch's rule-install time (switch drivers work in parallel).
   @raise Engine.Rules_exhausted when a module cell overflows
   mid-rollout (the caller rolls back). *)
let install_deployment t a =
  let compiled = a.a_compiled in
  let uid = t.next_uid in
  t.next_uid <- uid + 1;
  let latencies = ref [] in
  let total_rules = ref 0 in
  (* a CQE deployment has its placement, a sole one has none *)
  (match a.a_placement with
  | None ->
      Array.iteri
        (fun s engine ->
          if t.enabled.(s) then begin
            let _, rules = Engine.install engine ~uid:(slice_uid uid 1) compiled in
            total_rules := !total_rules + rules;
            latencies := Switch.install_rules t.switches.(s) ~count:rules :: !latencies
          end)
        t.engines
  | Some p ->
      Array.iteri
        (fun s ds ->
          List.iter
            (fun d ->
              let lo, hi = Placement.stage_range p d in
              let _, rules =
                Engine.install t.engines.(s) ~uid:(slice_uid uid d) ~stage_lo:lo
                  ~stage_hi:hi compiled
              in
              total_rules := !total_rules + rules;
              latencies := Switch.install_rules t.switches.(s) ~count:rules :: !latencies)
            ds)
        p.Placement.slices);
  t.deployments <-
    { uid; compiled;
      peer =
        Newton_analysis.Pass.peer compiled.Newton_compiler.Compose.query
          (Some compiled);
      mode = a.a_mode; placement = a.a_placement;
      stages_per_switch = a.a_stages_per_switch; installed_rules = !total_rules }
    :: t.deployments;
  let latency = List.fold_left max 0.0 !latencies in
  (uid, latency)

(* Undo the partial installs of a rollout that died mid-way. *)
let rollback_partial t uid =
  Array.iter
    (fun engine ->
      List.iter
        (fun (inst : Engine.instance) ->
          if Engine.instance_uid inst / 1000 = uid then
            ignore (Engine.remove engine (Engine.instance_uid inst)))
        (Engine.instances engine))
    t.engines;
  t.deployments <- List.filter (fun d -> d.uid <> uid) t.deployments

(* Install with the capacity failure as a value: the engine exception
   (for the raising wrapper) and its NA054 rendering (for the checked
   entry points). *)
let install_impl t a =
  match install_deployment t a with
  | r -> Ok r
  | exception (Engine.Rules_exhausted { stage; kind } as e) ->
      rollback_partial t (t.next_uid - 1);
      Error (e, exhausted_diag a.a_compiled ~stage ~kind)

(** Install what {!admit} returned; [Error [NA054]] when a module cell
    overflows mid-rollout (partial installs rolled back). *)
let install t a = Result.map_error (fun (_, diag) -> [ diag ]) (install_impl t a)

(* Gate + install, failures as values the two public entry points
   render their own way: [`Refused] keeps the gate's diagnostics,
   [`Exhausted] the engine exception and its NA054 rendering. *)
let deploy_impl ?(mode = `Cqe) ?(stages_per_switch = 12) t compiled =
  match gate_compiled t ~mode ~stages_per_switch compiled with
  | Error diags -> Error (`Refused diags)
  | Ok (a, _) ->
      Result.map_error (fun e -> `Exhausted e) (install_impl t a)

(** Deploy a compiled query network-wide, admission failures as values:
    [Error diags] when the static-analysis gate refuses the query or a
    module cell overflows mid-rollout (NA054; partial installs rolled
    back).  Never raises on admission or capacity. *)
let deploy_checked ?mode ?stages_per_switch t compiled =
  match deploy_impl ?mode ?stages_per_switch t compiled with
  | Ok r -> Ok r
  | Error (`Refused diags) -> Error diags
  | Error (`Exhausted (_, diag)) -> Error [ diag ]

(** Exception form — a thin wrapper over the checked path.
    @raise Rejected when static analysis refuses the query.
    @raise Engine.Rules_exhausted on install-time capacity overflow
    (after rollback). *)
let deploy ?mode ?stages_per_switch t compiled =
  match deploy_impl ?mode ?stages_per_switch t compiled with
  | Ok r -> r
  | Error (`Refused diags) -> raise (Rejected diags)
  | Error (`Exhausted (e, _)) -> raise e

(** Remove a deployment everywhere; returns the slowest switch's rule
    removal latency. *)
let undeploy t uid =
  match find_deployment t uid with
  | None -> None
  | Some _ ->
      let latencies = ref [ 0.0 ] in
      Array.iteri
        (fun s engine ->
          let removed = ref 0 in
          List.iter
            (fun inst ->
              if Engine.instance_uid inst / 1000 = uid then
                match Engine.remove engine (Engine.instance_uid inst) with
                | Some rules -> removed := !removed + rules
                | None -> ())
            (Engine.instances engine);
          if !removed > 0 then
            latencies := Switch.remove_rules t.switches.(s) ~count:!removed :: !latencies)
        t.engines;
      t.deployments <- List.filter (fun d -> d.uid <> uid) t.deployments;
      Some (List.fold_left max 0.0 !latencies)

(* ---------------- software continuation ---------------- *)

(* The analyzer finishes a query whose remaining slices exceeded the
   forwarding path: it lazily instantiates the tail (slices
   [next_slice..M] as one stage range) and resumes from the exported
   execution status. *)
let software_continue t dep row ~next_slice =
  match dep.placement with
  | None -> ()
  | Some p ->
      let lo, _ = Placement.stage_range p next_slice in
      let uid = slice_uid dep.uid (500 + next_slice) in
      let inst =
        match Engine.find_instance t.software uid with
        | Some i -> i
        | None ->
            ignore (Engine.install t.software ~uid ~stage_lo:lo dep.compiled);
            Option.get (Engine.find_instance t.software uid)
      in
      Engine.begin_packet t.software row;
      Engine.count_continuation t.software;
      t.software_packet <- t.packets;
      Engine.process_slice t.software inst ~ctx:t.ctx row

(* ---------------- packet processing ----------------

   One packet's walk over the deployments and its switch path
   ([t.path], [n] switches), written as top-level recursions over
   explicit parameters so that nothing is allocated per packet.  As a
   switch parses a packet once for every slice it hosts, every slice
   reads the caller's packet where it lies, as the one-row arena [row];
   counter events wait in each engine's tally until the walk ends. *)

(* A switch's first slice of a packet counts the packet, classifies it
   and rolls its engine's windows; doing so again for the same packet
   would change nothing. *)
let touch t s engine row =
  if t.touched.(s) <> t.packets then begin
    t.touched.(s) <- t.packets;
    Engine.record_packet_seen engine;
    Engine.begin_packet engine row
  end

(* Sole: the full query, instance [uid], on a fresh context at every
   path hop from index [i]. *)
let rec run_sole t row uid n i =
  if i < n then begin
    let s = t.path.(i) in
    let engine = t.engines.(s) in
    (match Engine.find_instance engine uid with
    | Some inst ->
        touch t s engine row;
        Ctx.reset t.ctx;
        Engine.process_slice engine inst ~ctx:t.ctx row
    | None -> ());
    run_sole t row uid n (i + 1)
  end

(* CQE: run slice [d + 1] of [dep]'s [m] at the next hop from path index
   [i].  Depth counts Newton-enabled hops only, and the SP header
   survives only between {e adjacent} enabled switches (§7): [prev] is
   the path index of the last enabled hop ([-2] before the first), and
   a legacy switch in between loses the snapshot.  Returns the depth
   reached. *)
let rec run_cqe t dep row m n i d prev =
  let ctx = t.ctx in
  if i >= n || ctx.Ctx.stopped || d >= m then d
  else
    let s = t.path.(i) in
    if not t.enabled.(s) then run_cqe t dep row m n (i + 1) d prev
    else begin
      let d = d + 1 in
      let engine = t.engines.(s) in
      Engine.count_cqe_hop engine;
      (match Engine.find_instance engine (slice_uid dep.uid d) with
      | Some inst ->
          touch t s engine row;
          if d > 1 then begin
            if i = prev + 1 then begin
              (* SP header between adjacent Newton hops. *)
              t.sp_bytes <- t.sp_bytes + Newton_packet.Sp_header.size_bytes;
              Engine.count_sp_header engine Newton_packet.Sp_header.size_bytes;
              Ctx.apply_sp_widths ctx
            end
            else
              (* snapshot lost crossing a legacy switch *)
              Ctx.reset ctx
          end;
          Engine.process_slice engine inst ~ctx row
      | None ->
          (* Placement gap (should not happen under Algorithm 2): defer
             to the analyzer. *)
          t.software_status_msgs <- t.software_status_msgs + 1);
      run_cqe t dep row m n (i + 1) d i
    end

let rec run_deps t row n = function
  | [] -> ()
  | dep :: rest ->
      (match dep.mode with
      | `Sole -> run_sole t row (slice_uid dep.uid 1) n 0
      | `Cqe ->
          let m =
            match dep.placement with Some p -> p.Placement.num_slices | None -> 1
          in
          Ctx.reset t.ctx;
          let d = run_cqe t dep row m n 0 0 (-2) in
          (* Query longer than the (enabled part of the) path: the last
             switch exports the execution status and the analyzer
             continues executing the remaining slices in software
             (§5.2). *)
          if m > d && d > 0 && not t.ctx.Ctx.stopped then begin
            t.software_status_msgs <- t.software_status_msgs + 1;
            software_continue t dep row ~next_slice:(d + 1)
          end);
      run_deps t row n rest

(* Fold the packet's tallies into the sinks of the switches on path
   indices [i, n); a switch the packet did not reach has nothing to
   fold. *)
let rec flush_path t n i =
  if i < n then begin
    Engine.flush t.engines.(t.path.(i));
    flush_path t n (i + 1)
  end

(** Process one packet whose flow enters at [src_host] and leaves at
    [dst_host].  Executes every deployment along the forwarding path:
    CQE deployments run slice d at hop d with the context threaded
    through the SP header; sole deployments run the full query
    independently at every hop.  A disconnected packet is dropped by
    routing; one between two ports of the same host never enters the
    fabric.  Every engine counter is up to date when it returns. *)
let process_packet t ~src_host ~dst_host pkt =
  t.packets <- t.packets + 1;
  t.wire_bytes <- t.wire_bytes + Newton_packet.Packet.get pkt Newton_packet.Field.Pkt_len;
  let flow_hash = Newton_packet.Fivetuple.hash_packet pkt in
  let n = Route.switch_path_into t.route ~flow_hash ~src_host ~dst_host t.path in
  if n > 0 then begin
    run_deps t (Newton_packet.Flat.of_packet pkt) n t.deployments;
    flush_path t n 0;
    if t.software_packet = t.packets then Engine.flush t.software
  end

(** All reports produced so far: data-plane reports network-wide plus
    the analyzer's software-continuation results. *)
let all_reports t =
  Array.fold_left (fun acc e -> acc @ Engine.reports e) (Engine.reports t.software) t.engines

(** Total monitoring messages: one per data-plane report plus software
    status exports. *)
let message_count t =
  Array.fold_left (fun acc e -> acc + Engine.report_count e) 0 t.engines
  + t.software_status_msgs

(** Packets whose query outlived the forwarding path and were exported
    to the analyzer for software continuation (§5.2). *)
let software_deferrals t = t.software_status_msgs

let sp_overhead_ratio t =
  if t.wire_bytes = 0 then 0.0
  else float_of_int t.sp_bytes /. float_of_int t.wire_bytes

let packets t = t.packets

(** Network-wide telemetry snapshot: one {!Introspect.engine_metrics}
    per switch (labelled [switch=<id>]) plus the analyzer's software
    engine ([switch="analyzer"]), merged so same-named families carry
    every switch's samples. *)
let snapshot t =
  let per_switch =
    Array.to_list
      (Array.mapi
         (fun i e ->
           Introspect.engine_metrics
             ~labels:[ ("switch", string_of_int i) ]
             e)
         t.engines)
  in
  Newton_telemetry.Snapshot.merge_all
    (per_switch
    @ [ Introspect.engine_metrics ~labels:[ ("switch", "analyzer") ] t.software;
        Newton_telemetry.Snapshot.of_sink
          ~labels:[ ("switch", "controller") ]
          t.c_sink ])

(* ---------------- failures ---------------- *)

(** Fail a link; forwarding reroutes on the next packet.  Thanks to the
    resilient placement, CQE deployments keep monitoring the rerouted
    traffic without controller intervention. *)
let fail_link t l = Route.fail_link t.route l

let repair_link t l = Route.repair_link t.route l

(* ---------------- switch failure recovery ---------------- *)

let failed_switches t = Route.failed_nodes t.route
let recoveries t = List.rev t.recoveries

(** Network-wide reports after analyzer-style reconciliation:
    epoch-aligned sort + identity dedup, collapsing the duplicates that
    sole-switch replication and post-migration re-emission produce. *)
let reconciled_reports t = Merge.reports [ all_reports t ]

let bump_c t k n = Newton_telemetry.Stats.bump t.c_sink k n

(* Re-run Algorithm 2 for [dep] over the currently usable topology. *)
let replace_placement t dep =
  Placement.place
    ~enabled:(fun x -> t.enabled.(x))
    ~usable:(fun x -> not (Route.is_node_failed t.route x))
    ~stages_per_switch:dep.stages_per_switch ~topo:t.topo dep.compiled

(* Install every slice instance [p] calls for that is not present yet
   (skipping failed switches).  A switch out of module-table capacity is
   skipped — the slice keeps its other hosts or degrades to software.
   Accumulates install latencies and the entry count. *)
let install_missing t dep (p : Placement.t) ~latencies ~rules_installed =
  Array.iteri
    (fun s' ds ->
      if not (Route.is_node_failed t.route s') then
        List.iter
          (fun d ->
            if Engine.find_instance t.engines.(s') (slice_uid dep.uid d) = None
            then begin
              let lo, hi = Placement.stage_range p d in
              match
                Engine.install t.engines.(s') ~uid:(slice_uid dep.uid d)
                  ~stage_lo:lo ~stage_hi:hi dep.compiled
              with
              | _, rules ->
                  rules_installed := !rules_installed + rules;
                  dep.installed_rules <- dep.installed_rules + rules;
                  latencies :=
                    Switch.install_rules t.switches.(s') ~count:rules
                    :: !latencies
              | exception Engine.Rules_exhausted _ -> ()
            end)
          ds)
    p.Placement.slices

(* Move one displaced slice's state off the failed switch: merge it into
   {e every} surviving host of the same slice.  Rerouted flows fan out —
   each direction/path meets its own depth-d switch — so no single host
   is "the" replacement; replicating the bank everywhere keeps each
   key's aggregate on whichever host its flow now traverses.  A key's
   packets cross exactly one depth-d switch, so only one replica keeps
   accumulating per key, and the dedup memory (copied along) stops the
   frozen replicas from re-emitting.  When no dataplane host survives,
   the state goes to the software engine's continuation instance for the
   slice, so the analyzer finishes the query with the accumulated state
   (§5.2 degraded mode). *)
let migrate_slice t dep d ~src ~migrated ~cells ~fallbacks =
  let uid_d = slice_uid dep.uid d in
  let op_of = Merge.array_ops src in
  let survivors =
    List.filter_map
      (fun s' ->
        if Route.is_node_failed t.route s' then None
        else Engine.find_instance t.engines.(s') uid_d)
      (Topo.switches t.topo)
  in
  match survivors with
  | _ :: _ ->
      incr migrated;
      List.iter
        (fun dst ->
          let _, c = Engine.absorb_state ~op_of ~src ~dst in
          cells := !cells + c)
        survivors
  | [] -> (
      match dep.placement with
      | None -> ()
      | Some p ->
          let lo, _ = Placement.stage_range p d in
          let uid_sw = slice_uid dep.uid (500 + d) in
          let dst =
            match Engine.find_instance t.software uid_sw with
            | Some i -> i
            | None ->
                ignore (Engine.install t.software ~uid:uid_sw ~stage_lo:lo dep.compiled);
                Option.get (Engine.find_instance t.software uid_sw)
          in
          let _, c = Engine.absorb_state ~op_of:(Merge.array_ops src) ~src ~dst in
          incr fallbacks;
          cells := !cells + c)

(** Fail a switch: mark it down (forwarding reroutes around it), re-run
    Algorithm 2 over the surviving topology, install any slices the
    re-placement adds, and migrate each displaced slice's register state
    — into every surviving host of the slice under the slot's ALU merge
    op, or into the software-continuation engine when no resilient
    placement exists.  The dedup memory travels with the state, so no
    host re-emits reports the failed switch already exported.
    Sole-switch deployments need no migration (every hop holds the full
    state already; merging would double-count) — the dead instance is
    dropped.  Returns the recovery record, or [None] if [s] was already
    down.
    @raise Invalid_argument if [s] is not a switch. *)
let fail_switch t s =
  if not (Topo.is_switch t.topo s) then
    invalid_arg (Printf.sprintf "Deploy.fail_switch: %d is not a switch" s);
  if Route.is_node_failed t.route s then None
  else begin
    Route.fail_node t.route s;
    bump_c t Newton_telemetry.Stats.Switch_failures 1;
    let failed_engine = t.engines.(s) in
    let latencies = ref [ 0.0 ] in
    let migrated = ref 0 and cells = ref 0 and fallbacks = ref 0 in
    let rules_installed = ref 0 in
    List.iter
      (fun dep ->
        match dep.mode with
        | `Sole -> ignore (Engine.remove failed_engine (slice_uid dep.uid 1))
        | `Cqe ->
            let displaced =
              match dep.placement with
              | None -> []
              | Some p -> p.Placement.slices.(s)
            in
            let p' = replace_placement t dep in
            install_missing t dep p' ~latencies ~rules_installed;
            List.iter
              (fun d ->
                match Engine.find_instance failed_engine (slice_uid dep.uid d) with
                | None -> ()
                | Some src ->
                    migrate_slice t dep d ~src ~migrated ~cells ~fallbacks;
                    ignore (Engine.remove failed_engine (slice_uid dep.uid d)))
              displaced;
            dep.placement <- Some p')
      t.deployments;
    bump_c t Newton_telemetry.Stats.Slices_migrated !migrated;
    bump_c t Newton_telemetry.Stats.State_cells_moved !cells;
    bump_c t Newton_telemetry.Stats.Software_fallbacks !fallbacks;
    let r =
      {
        r_switch = s;
        r_event = `Fail;
        r_slices_migrated = !migrated;
        r_cells_moved = !cells;
        r_software_fallbacks = !fallbacks;
        r_rules_installed = !rules_installed;
        r_latency = List.fold_left max 0.0 !latencies;
      }
    in
    t.recoveries <- r :: t.recoveries;
    Some r
  end

(** Repair a switch: mark it up and re-run Algorithm 2 so it regains its
    slices (sole-switch deployments get their full instance back).  The
    rejoined switch starts with {e empty} register state — its windows
    converge from the next boundary; reports stay covered meanwhile by
    the failure-time placement, whose instances are retained.  Returns
    the recovery record, or [None] if [s] was not down.
    @raise Invalid_argument if [s] is not a switch. *)
let repair_switch t s =
  if not (Topo.is_switch t.topo s) then
    invalid_arg (Printf.sprintf "Deploy.repair_switch: %d is not a switch" s);
  if not (Route.is_node_failed t.route s) then None
  else begin
    Route.repair_node t.route s;
    bump_c t Newton_telemetry.Stats.Switch_repairs 1;
    let latencies = ref [ 0.0 ] in
    let rules_installed = ref 0 in
    List.iter
      (fun dep ->
        match dep.mode with
        | `Sole ->
            if
              t.enabled.(s)
              && Engine.find_instance t.engines.(s) (slice_uid dep.uid 1) = None
            then begin
              match
                Engine.install t.engines.(s) ~uid:(slice_uid dep.uid 1)
                  dep.compiled
              with
              | _, rules ->
                  rules_installed := !rules_installed + rules;
                  dep.installed_rules <- dep.installed_rules + rules;
                  latencies :=
                    Switch.install_rules t.switches.(s) ~count:rules :: !latencies
              | exception Engine.Rules_exhausted _ -> ()
            end
        | `Cqe ->
            let p' = replace_placement t dep in
            install_missing t dep p' ~latencies ~rules_installed;
            dep.placement <- Some p')
      t.deployments;
    let r =
      {
        r_switch = s;
        r_event = `Repair;
        r_slices_migrated = 0;
        r_cells_moved = 0;
        r_software_fallbacks = 0;
        r_rules_installed = !rules_installed;
        r_latency = List.fold_left max 0.0 !latencies;
      }
    in
    t.recoveries <- r :: t.recoveries;
    Some r
  end
