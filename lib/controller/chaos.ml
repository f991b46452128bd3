(** Chaos harness: replay one trace twice — once failure-free, once
    under a switch fail/repair schedule — and diff the reconciled
    report sets.

    A diff (a report present in exactly one run) is {e explained} when
    its measurement window, under the owning query's window length,
    contains a fail or repair event: state mid-window on a failing or
    rejoining switch legitimately under- or over-shoots in that window.
    Everything else is {e unexplained} loss — the quantity the recovery
    subsystem is required to hold at zero on deterministic-reroute
    topologies ({!Newton_network.Topo.bypass}). *)

open Newton_network
open Newton_query

type action = [ `Fail | `Repair ]

type event = { at : float; switch : int; action : action }

type diff = {
  d_report : Report.t;
  d_kind : [ `Missing | `Extra ];  (** relative to the failure-free run *)
  d_explained : bool;
}

type result = {
  topo_name : string;
  query_ids : int list;
  events : event list;
  baseline_reports : int;
  chaos_reports : int;
  matched : int;
  diffs : diff list;
  recoveries : Deploy.recovery list;
  silent : int list;
}

let unexplained r = List.filter (fun d -> not d.d_explained) r.diffs

(* Queries whose failure-free run may report nothing, with the reason;
   for any other, an empty baseline makes the diff vacuous. *)
let may_stay_silent =
  [
    ( 3,
      "on a two-host topology (bypass, linear) the destinations that \
       share the super-spreader's host never enter the fabric: on the \
       default trace at most 59 a window cross it, below Th = 60" );
    ( 7,
      "at few stages per switch its Min combine reads the sibling \
       branch's bank on another switch, which reads as zero (NA071)" );
  ]

(* Admit and install [q] as the daemon does.
   @raise Deploy.Rejected on a refusal or a module cell overflow. *)
let admit dep ~stages_per_switch q =
  match Deploy.admit dep ~stages_per_switch q with
  | Error diags -> raise (Deploy.Rejected diags)
  | Ok (a, _) -> (
      match Deploy.install dep a with
      | Ok _ -> ()
      | Error diags -> raise (Deploy.Rejected diags))

(* One replay: admit every query, then walk the trace firing due
   schedule events between packets. *)
let replay ~stages_per_switch ~topo ~queries ~events trace =
  let dep = Deploy.create topo in
  List.iter (admit dep ~stages_per_switch) queries;
  let pending = ref (List.stable_sort (fun a b -> compare a.at b.at) events) in
  Newton_trace.Gen.iter
    (fun pkt ->
      let ts = Newton_packet.Packet.ts pkt in
      let rec fire () =
        match !pending with
        | e :: rest when e.at <= ts ->
            (match e.action with
            | `Fail -> ignore (Deploy.fail_switch dep e.switch)
            | `Repair -> ignore (Deploy.repair_switch dep e.switch));
            pending := rest;
            fire ()
        | _ -> ()
      in
      fire ();
      let src_host =
        Topo.host_of_ip topo
          (Newton_packet.Packet.get pkt Newton_packet.Field.Src_ip)
      in
      let dst_host =
        Topo.host_of_ip topo
          (Newton_packet.Packet.get pkt Newton_packet.Field.Dst_ip)
      in
      Deploy.process_packet dep ~src_host ~dst_host pkt)
    trace;
  dep

let run ?(stages_per_switch = 12) ~topo ~queries ~events trace =
  let window_of =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun (q : Ast.t) -> Hashtbl.replace tbl q.Ast.id q.Ast.window)
      queries;
    fun qid -> Hashtbl.find_opt tbl qid
  in
  let baseline = replay ~stages_per_switch ~topo ~queries ~events:[] trace in
  let chaos = replay ~stages_per_switch ~topo ~queries ~events trace in
  let base_reports = Deploy.reconciled_reports baseline in
  let chaos_reports = Deploy.reconciled_reports chaos in
  let explained (r : Report.t) =
    match window_of r.Report.query_id with
    | None -> false
    | Some w ->
        List.exists
          (fun e -> int_of_float (e.at /. w) = r.Report.window)
          events
  in
  (* By identity: a report whose aggregate moved under failures is
     neither missing nor extra ([changed] goes unread). *)
  let { Report.missing; extra; _ } =
    Report.diff ~reference:base_reports ~measured:chaos_reports
  in
  let diff kind r = { d_report = r; d_kind = kind; d_explained = explained r } in
  let reported id =
    List.exists (fun (r : Report.t) -> r.Report.query_id = id) base_reports
  in
  let query_ids = List.map (fun (q : Ast.t) -> q.Ast.id) queries in
  {
    topo_name = Topo.name topo;
    query_ids;
    events;
    baseline_reports = List.length base_reports;
    chaos_reports = List.length chaos_reports;
    matched = List.length base_reports - List.length missing;
    diffs = List.map (diff `Missing) missing @ List.map (diff `Extra) extra;
    recoveries = Deploy.recoveries chaos;
    silent =
      List.filter
        (fun id -> not (reported id || List.mem_assoc id may_stay_silent))
        query_ids;
  }

(* ---------------- JSON artifact ---------------- *)

open Newton_util

let event_json e =
  Json.Obj
    [
      ("at", Json.Float e.at);
      ("switch", Json.Int e.switch);
      ("action", Json.String (match e.action with `Fail -> "fail" | `Repair -> "repair"));
    ]

let diff_json d =
  let r = d.d_report in
  Json.Obj
    [
      ("kind", Json.String (match d.d_kind with `Missing -> "missing" | `Extra -> "extra"));
      ("query", Json.Int r.Report.query_id);
      ("window", Json.Int r.Report.window);
      ( "keys",
        Json.List (Array.to_list (Array.map (fun k -> Json.Int k) r.Report.keys)) );
      ("value", Json.Int r.Report.value);
      ("explained", Json.Bool d.d_explained);
    ]

let recovery_json (r : Deploy.recovery) =
  Json.Obj
    [
      ("switch", Json.Int r.Deploy.r_switch);
      ("event", Json.String (match r.Deploy.r_event with `Fail -> "fail" | `Repair -> "repair"));
      ("slices_migrated", Json.Int r.Deploy.r_slices_migrated);
      ("cells_moved", Json.Int r.Deploy.r_cells_moved);
      ("software_fallbacks", Json.Int r.Deploy.r_software_fallbacks);
      ("rules_installed", Json.Int r.Deploy.r_rules_installed);
      ("latency_ms", Json.Float (r.Deploy.r_latency *. 1e3));
    ]

(** Machine-readable diff artifact: the CI chaos leg uploads this, and
    [newton chaos --strict] gates on ["zero_unexplained_loss"]. *)
let to_json res =
  let unexpl = unexplained res in
  Json.Obj
    [
      ("topology", Json.String res.topo_name);
      ("queries", Json.List (List.map (fun i -> Json.Int i) res.query_ids));
      ("events", Json.List (List.map event_json res.events));
      ("baseline_reports", Json.Int res.baseline_reports);
      ("chaos_reports", Json.Int res.chaos_reports);
      ("matched", Json.Int res.matched);
      ("diffs", Json.List (List.map diff_json res.diffs));
      ("explained", Json.Int (List.length res.diffs - List.length unexpl));
      ("unexplained", Json.Int (List.length unexpl));
      ("recoveries", Json.List (List.map recovery_json res.recoveries));
      ("zero_unexplained_loss", Json.Bool (unexpl = []));
    ]

let to_json_string res = Json.to_string (to_json res)
