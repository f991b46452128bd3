(** Whole-system property tests over randomly generated queries.

    A generator produces random {e valid} single-branch queries
    (front filter → map → optional distinct → reduce → threshold →
    trailing map); properties check that every one of them
    - passes validation,
    - compiles under every optimization combination with the structural
      invariants intact,
    - executes on the engine with exactly the reference evaluator's
      recall (sketches never miss), and
    - produces the same report set when sliced for CQE as when run on a
      single switch. *)

open Newton_packet
open Newton_query
open Newton_runtime

(* ---------------- random query generation ---------------- *)

let key_fields = [| Field.Src_ip; Field.Dst_ip; Field.Src_port; Field.Dst_port |]

let gen_query =
  QCheck.Gen.(
    let* use_filter = bool in
    let* proto = oneofl [ 6; 17 ] in
    let* nkeys = int_range 1 2 in
    let* key_idx = int_range 0 (Array.length key_fields - 1) in
    let keys =
      List.init nkeys (fun i ->
          Ast.key key_fields.((key_idx + i) mod Array.length key_fields))
    in
    let* use_distinct = bool in
    let* agg =
      oneofl [ Ast.Count; Ast.Sum_field Field.Pkt_len; Ast.Max_field Field.Pkt_len ]
    in
    let* th = int_range 1 30 in
    let reduce_keys = [ List.hd keys ] in
    let prims =
      (if use_filter then [ Ast.Filter [ Ast.field_is Field.Proto proto ] ] else [])
      @ [ Ast.Map keys ]
      @ (if use_distinct then [ Ast.Distinct keys ] else [])
      @ [ Ast.Map reduce_keys;
          Ast.Reduce { keys = reduce_keys; agg };
          Ast.Filter [ Ast.result_gt th ];
          Ast.Map reduce_keys ]
    in
    return (Ast.chain ~id:42 ~name:"random" ~description:"generated" prims))

let arb_query = QCheck.make ~print:Ast.to_string gen_query

(* Small deterministic traffic so properties run fast; wide registers so
   sketch collisions cannot cause false negatives at this scale. *)
let test_trace =
  lazy
    (Newton_trace.Gen.generate ~attacks:Newton_trace.Attack.default_suite ~seed:5
       (Newton_trace.Profile.with_flows Newton_trace.Profile.caida_like 400))

let options =
  { Newton_compiler.Decompose.default_options with registers = 8192 }

let compile q = Newton_compiler.Compose.compile ~options q

(* ---------------- properties ---------------- *)

let prop_valid =
  QCheck.Test.make ~count:200 ~name:"random queries validate" arb_query
    (fun q -> Ast.validate q = [])

let prop_compile_invariants =
  QCheck.Test.make ~count:200 ~name:"random queries compile with invariants"
    QCheck.(pair arb_query (triple bool bool bool))
    (fun (q, (o1, o2, o3)) ->
      let opts = { options with opt1 = o1; opt2 = o2; opt3 = o3 } in
      let c = Newton_compiler.Compose.compile ~options:opts q in
      let s = c.Newton_compiler.Compose.stats in
      let ok_stats =
        s.Newton_compiler.Compose.modules <= s.Newton_compiler.Compose.modules_naive
        && s.Newton_compiler.Compose.stages <= s.Newton_compiler.Compose.stages_naive
        && s.Newton_compiler.Compose.modules_shared <= s.Newton_compiler.Compose.modules
      in
      (* cells unique and suite chains strictly increasing *)
      let ok_structure =
        Array.for_all
          (fun slots ->
            let cells = Hashtbl.create 16 in
            let suites = Hashtbl.create 16 in
            List.for_all
              (fun sl ->
                let cell = (sl.Newton_compiler.Ir.stage, sl.Newton_compiler.Ir.kind, sl.Newton_compiler.Ir.meta) in
                let fresh = not (Hashtbl.mem cells cell) in
                Hashtbl.replace cells cell ();
                let sk = (sl.Newton_compiler.Ir.prim, sl.Newton_compiler.Ir.suite) in
                let prev = Option.value (Hashtbl.find_opt suites sk) ~default:(-1) in
                Hashtbl.replace suites sk sl.Newton_compiler.Ir.stage;
                fresh && sl.Newton_compiler.Ir.stage > prev)
              slots)
          c.Newton_compiler.Compose.branches
      in
      ok_stats && ok_structure)

let prop_engine_matches_reference =
  QCheck.Test.make ~count:40 ~name:"random queries: engine recall = reference"
    arb_query
    (fun q ->
      let trace = Lazy.force test_trace in
      let truth = Ref_eval.evaluate q (Newton_trace.Gen.packets trace) in
      let e = Engine.create ~switch_id:0 () in
      let _ = Engine.install e (compile q) in
      Array.iter (Engine.process_packet e) (Newton_trace.Gen.packets trace);
      let a = Analyzer.score ~truth ~detected:(Engine.reports e) in
      a.Analyzer.recall >= 0.999)

let prop_cqe_slicing_equivalent =
  QCheck.Test.make ~count:40 ~name:"random queries: CQE slicing = single switch"
    QCheck.(pair arb_query (int_range 2 4))
    (fun (q, nslices) ->
      let compiled = compile q in
      let trace = Lazy.force test_trace in
      let single = Engine.create ~switch_id:0 () in
      let _ = Engine.install single compiled in
      (* CQE on [linear nslices], cut so the chain spans every switch;
         each packet crosses them all, first host to last. *)
      let stages = compiled.Newton_compiler.Compose.stats.Newton_compiler.Compose.stages in
      let per = max 1 ((stages + nslices - 1) / nslices) in
      let module Deploy = Newton_controller.Deploy in
      let sliced = Deploy.create (Newton_network.Topo.linear nslices) in
      ignore (Deploy.deploy ~mode:`Cqe ~stages_per_switch:per sliced compiled);
      let src_host, dst_host =
        match Newton_network.Topo.hosts (Deploy.topo sliced) with
        | [ a; b ] -> (a, b)
        | _ -> assert false
      in
      Array.iter
        (fun pkt ->
          Engine.process_packet single pkt;
          Deploy.process_packet sliced ~src_host ~dst_host pkt)
        (Newton_trace.Gen.packets trace);
      let keyset reports =
        List.map (fun r -> (r.Report.window, r.Report.keys)) reports
        |> List.sort_uniq compare
      in
      Deploy.software_deferrals sliced = 0
      && keyset (Engine.reports single) = keyset (Deploy.all_reports sliced))

let prop_window_isolation =
  QCheck.Test.make ~count:40
    ~name:"random queries: reports never span window state" arb_query
    (fun q ->
      (* Feeding the same single-window burst twice in different windows
         yields exactly the same per-window report count. *)
      let e = Engine.create ~switch_id:0 () in
      let _ = Engine.install e (compile q) in
      let burst base_ts =
        for i = 1 to 40 do
          Engine.process_packet e
            (Packet.make ~ts:base_ts ~src_ip:i ~dst_ip:7 ~proto:6 ~src_port:99
               ~dst_port:80 ~tcp_flags:2 ~pkt_len:200 ())
        done
      in
      burst 0.01;
      let w0 = Engine.report_count e in
      burst 0.15;
      Engine.report_count e = 2 * w0)

(* The engine's [distinct] is a Bloom filter over register rows with no
   false negatives: a key seen once in a window is never counted again
   in that window, and a window roll forgets it.  Random sources hit
   one victim in two windows; counting distinct sources per victim
   gives exactly the number [k] of distinct sources, so [count > k]
   never reports and [count > k - 1] reports once per window (wide
   rows keep false positives, which would undercount, out of reach). *)
let prop_distinct_counts_each_key_once =
  QCheck.Test.make ~count:100
    ~name:"distinct: a key seen in a window is never counted again"
    QCheck.(list_of_size Gen.(int_range 1 60) (int_range 1 40))
    (fun sources ->
      let k = List.length (List.sort_uniq compare sources) in
      let pair = [ Ast.key Field.Src_ip; Ast.key Field.Dst_ip ] in
      let victim = [ Ast.key Field.Dst_ip ] in
      let reports threshold =
        let q =
          Ast.chain ~id:43 ~name:"distinct" ~description:"sources per victim"
            [ Ast.Map pair; Ast.Distinct pair; Ast.Map victim;
              Ast.Reduce { keys = victim; agg = Ast.Count };
              Ast.Filter [ Ast.result_gt threshold ];
              Ast.Map victim ]
        in
        let e = Engine.create ~switch_id:0 () in
        ignore
          (Engine.install e
             (Newton_compiler.Compose.compile
                ~options:{ options with registers = 65536 } q));
        List.iter
          (fun ts ->
            List.iter
              (fun src_ip ->
                Engine.process_packet e
                  (Packet.make ~ts ~src_ip ~dst_ip:7 ~proto:6 ~src_port:99
                     ~dst_port:80 ~tcp_flags:2 ~pkt_len:200 ()))
              sources)
          [ 0.01; 0.15 ];
        Engine.report_count e
      in
      reports k = 0 && reports (k - 1) = 2)

let prop_dsl_roundtrip =
  QCheck.Test.make ~count:150 ~name:"random queries: DSL print/parse roundtrip"
    arb_query
    (fun q ->
      let q' = Parser.parse ~window:q.Ast.window (Printer.to_dsl q) in
      q'.Ast.branches = q.Ast.branches && q'.Ast.combine = q.Ast.combine)

let prop_single_failure_coverage =
  QCheck.Test.make ~count:30
    ~name:"placement covers any single-link-failure reroute"
    QCheck.(triple (int_range 1 9) (int_range 0 1000) (int_range 2 4))
    (fun (qid, link_pick, per) ->
      let topo = Newton_network.Topo.fat_tree 4 in
      let compiled =
        Newton_compiler.Compose.compile (Catalog.by_id qid)
      in
      let p =
        Newton_controller.Placement.place ~stages_per_switch:(per * 3) ~topo
          compiled
      in
      let route = Newton_network.Route.create topo in
      let links = Array.of_list (Newton_network.Topo.links topo) in
      Newton_network.Route.fail_link route links.(link_pick mod Array.length links);
      let hosts = Array.of_list (Newton_network.Topo.hosts topo) in
      (* a few host pairs; all rerouted paths must still be covered *)
      let ok = ref true in
      Array.iteri
        (fun i h1 ->
          if i < 4 then
            Array.iteri
              (fun j h2 ->
                if j < 4 && h1 <> h2 then
                  match
                    Newton_network.Route.switch_path route ~src_host:h1 ~dst_host:h2
                  with
                  | Some path ->
                      if not (Newton_controller.Placement.covers p path) then
                        ok := false
                  | None -> ())
              hosts)
        hosts;
      !ok)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_valid; prop_compile_invariants; prop_engine_matches_reference;
      prop_cqe_slicing_equivalent; prop_window_isolation;
      prop_single_failure_coverage; prop_distinct_counts_each_key_once;
      prop_dsl_roundtrip ]
