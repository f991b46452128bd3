(** Tests for the per-packet data path's cost and lookups: minor-heap
    allocation per packet on the single-device step and on the CQE
    path walk, window rolls across window lengths, split against whole
    suites, and the engine's uid index against a scan of its instance
    list. *)

open Newton_network
open Newton_runtime
open Newton_controller

let checkb = Alcotest.check Alcotest.bool

let catalog = Newton_query.Catalog.all () @ Newton_query.Catalog.extras ()

let compile_id id =
  match Newton_query.Catalog.find id with
  | Some q -> Newton_compiler.Compose.compile q
  | None -> Alcotest.failf "no catalog query Q%d" id

let trace ~attacks ~seed ~flows =
  Newton_trace.Gen.packets
    (Newton_trace.Gen.generate ~attacks ~seed
       (Newton_trace.Profile.with_flows Newton_trace.Profile.caida_like flows))

(* Minor words allocated per call of [f] over [0, n).  The reading
   itself allocates a boxed float or two, noise against [n] packets. *)
let minor_words_per n f =
  let before = Gc.minor_words () in
  for i = 0 to n - 1 do
    f i
  done;
  (Gc.minor_words () -. before) /. float_of_int n

(* ---------------- allocation per packet ----------------

   Both bounds are what the step allocates on their fixed-seed traces,
   the reports and dedup entries alone, rounded up: 0.310 words per
   packet on the device (all catalog intents on one engine; the step
   allocated 353 with boxed hashing, tuple dedup keys and per-packet
   closures, and 1.345 while every report slot that passed boxed the
   packet's timestamp, deduplicated or not) and 0.21 on the CQE walk
   of the golden churn scenario (0.57 with that boxed timestamp).  A
   closure or a boxed float per packet breaks either. *)

let device_step_words_bound = 0.35
let cqe_walk_words_bound = 0.25

let test_device_minor_words () =
  let d = Newton.Device.create () in
  List.iter (fun q -> ignore (Newton.Device.add_query d q)) catalog;
  let packets =
    trace ~attacks:Newton_trace.Attack.extended_suite ~seed:21 ~flows:2_500
  in
  let words =
    minor_words_per (Array.length packets) (fun i ->
        Newton.Device.process_packet d packets.(i))
  in
  checkb
    (Printf.sprintf "device step: %.3f minor words/packet <= %.2f" words
       device_step_words_bound)
    true
    (words <= device_step_words_bound)

(* The churn scenario of test/golden/cqe_replay.txt: the sixteen
   churn residents on [linear 4] at twelve stages per switch, the
   oldest rotating intent swapped for Q17 halfway through the seed-11
   trace.  Only the [Deploy.process_packet] calls are measured, not
   the swap's install. *)
let test_cqe_minor_words () =
  let d = Deploy.create (Topo.linear 4) in
  let deploy id =
    match Deploy.deploy_checked ~stages_per_switch:12 d (compile_id id) with
    | Ok (uid, _) -> uid
    | Error _ -> Alcotest.failf "Q%d refused" id
  in
  List.iter (fun id -> ignore (deploy id)) [ 1; 4 ];
  let rotating = List.map deploy [ 2; 3; 5; 6; 7; 8; 9; 10; 11; 12; 13; 14; 15; 16 ] in
  let packets =
    trace ~attacks:Newton_trace.Attack.default_suite ~seed:11 ~flows:3_000
  in
  let host pkt f =
    Topo.host_of_ip (Deploy.topo d)
      (Newton_packet.Packet.get pkt f)
  in
  let src = Array.map (fun p -> host p Newton_packet.Field.Src_ip) packets in
  let dst = Array.map (fun p -> host p Newton_packet.Field.Dst_ip) packets in
  let n = Array.length packets and half = Array.length packets / 2 in
  let walk from len =
    minor_words_per len (fun i ->
        let i = from + i in
        Deploy.process_packet d ~src_host:src.(i) ~dst_host:dst.(i) packets.(i))
    *. float_of_int len
  in
  let first = walk 0 half in
  ignore (Deploy.undeploy d (List.hd rotating));
  ignore (deploy 17);
  let words = (first +. walk half (n - half)) /. float_of_int n in
  checkb
    (Printf.sprintf "CQE walk: %.2f minor words/packet <= %.2f" words
       cqe_walk_words_bound)
    true
    (words <= cqe_walk_words_bound)

(* ---------------- window rolls ---------------- *)

(* [begin_packet] divides once per distinct window length; every
   instance must still land in the window its own length gives, also
   when lengths interleave in install order and after a remove. *)
let test_window_rolls_per_length () =
  let e = Engine.create ~switch_id:0 () in
  let with_window uid window =
    let q = Newton_query.Catalog.q1 () in
    ignore
      (Engine.install e ~uid
         (Newton_compiler.Compose.compile
            (Newton_query.Ast.make ~window ~id:uid ~name:"w" ~description:""
               q.Newton_query.Ast.branches)))
  in
  List.iter (fun (uid, w) -> with_window uid w) [ (1, 0.05); (2, 0.5); (3, 0.05); (4, 0.3) ];
  let check ts =
    Engine.begin_packet e (Newton_packet.Flat.of_packet (Newton_packet.Packet.create ~ts ()));
    List.iter
      (fun i ->
        let w = (Engine.instance_query i).Newton_query.Ast.window in
        Alcotest.(check int)
          (Printf.sprintf "uid %d at %.2f s" (Engine.instance_uid i) ts)
          (int_of_float (ts /. w)) (Engine.instance_window i))
      (Engine.instances e)
  in
  check 0.12;
  check 1.37;
  ignore (Engine.remove e 2);
  with_window 5 0.2;
  check 2.71;
  Alcotest.(check int) "one roll per window change"
    10 (Newton_telemetry.Stats.get (Engine.sink e) Newton_telemetry.Stats.Window_rolls)

(* ---------------- classifier against independent engines ----------------

   One engine hosting seventy intents, each filtering TCP to its own
   destination port, classifies every packet once over 71 distinct
   atoms at the peak: more than one word of the classifier bitset.
   Intents are installed and removed partway through the trace, and
   each one also runs alone on its own engine over the same packets
   while it lives.  The shared engine must report for every intent
   exactly what the lone engine does, and every counter but the
   packets seen must be the sum of the lone engines'.  Every fifth
   intent has two branches that a TCP packet to its port both match
   (TCP to the port, and anything to it, combined), the
   other even ones keep a Bloom bank (distinct) and the other odd ones
   only a Count-Min row; every third uses a 250 ms window. *)

let port_intents = 70
let port_packets = 30_000

let port_intent i =
  let port = 1000 + i in
  let text =
    if i mod 5 = 4 then
      Printf.sprintf
        "filter(proto == tcp, dport == %d) | map(dip) | reduce(dip, count) || \
         filter(dport == %d) | map(dip) | reduce(dip, count) => sub(count > 2)"
        port port
    else if i mod 2 = 0 then
      Printf.sprintf
        "filter(proto == tcp, dport == %d) | map(sip, dip) | distinct(sip, dip) | \
         map(dip) | reduce(dip, count) | filter(count > 3) | map(dip)"
        port
    else
      Printf.sprintf
        "filter(proto == tcp, dport == %d) | map(dip) | reduce(dip, count) | \
         filter(count > 5) | map(dip)"
        port
  in
  let window = if i mod 3 = 0 then 0.25 else 0.1 in
  Newton_compiler.Compose.compile (Newton_query.Parser.parse ~id:(i + 1) ~window text)

(* Packets [born, dies) of the trace reach intent [i]: forty from the
   start, thirty more one every 500 packets; every fourth leaves after
   the midpoint, so all seventy are hosted over packets [14500, 15150). *)
let port_lifetime i =
  let born = if i < 40 then 0 else (i - 40) * 500 in
  let dies = if i mod 4 = 1 then (port_packets / 2) + (i * 150) else port_packets in
  (born, dies)

(* 80 destination ports, ten of them with no intent; a tenth of the
   packets are UDP. *)
let port_trace () =
  let state = ref 12345 in
  Array.init port_packets (fun k ->
      state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
      let r = !state lsr 8 in
      Newton_packet.Packet.make ~ts:(float_of_int k *. 0.0002)
        ~src_ip:(0x0A000000 + (r mod 40))
        ~dst_ip:(0x0A010000 + ((r lsr 6) mod 6))
        ~proto:
          (if (r lsr 9) mod 10 = 0 then Newton_packet.Field.Protocol.udp
           else Newton_packet.Field.Protocol.tcp)
        ~src_port:(1024 + (r land 0xFF))
        ~dst_port:(1000 + ((r lsr 12) mod 80))
        ~pkt_len:64 ())

let test_classifier_matches_lone_engines () =
  let compiled = Array.init port_intents port_intent in
  let shared = Engine.create ~switch_id:0 () in
  let lone = Array.init port_intents (fun _ -> Engine.create ~switch_id:0 ()) in
  let shared_uid = Array.make port_intents 0 and lone_uid = Array.make port_intents 0 in
  Array.iteri
    (fun k pkt ->
      for i = 0 to port_intents - 1 do
        let born, dies = port_lifetime i in
        if k = born then begin
          shared_uid.(i) <- fst (Engine.install shared compiled.(i));
          lone_uid.(i) <- fst (Engine.install lone.(i) compiled.(i))
        end;
        if k = dies then begin
          ignore (Engine.remove shared shared_uid.(i));
          ignore (Engine.remove lone.(i) lone_uid.(i))
        end
      done;
      if k = port_packets / 2 then
        Alcotest.(check int) "every intent's entries hosted at the midpoint"
          (Array.fold_left
             (fun n c -> n + Array.length c.Newton_compiler.Compose.init_entries)
             0 compiled)
          (Engine.init_table_size shared);
      Engine.process_packet shared pkt;
      for i = 0 to port_intents - 1 do
        let born, dies = port_lifetime i in
        if born <= k && k < dies then Engine.process_packet lone.(i) pkt
      done)
    (port_trace ());
  let reporting = ref 0 in
  Array.iteri
    (fun i e ->
      let id = i + 1 in
      let mine =
        List.filter (fun r -> r.Newton_query.Report.query_id = id) (Engine.reports shared)
      in
      if mine <> [] then incr reporting;
      Alcotest.(check int) (Printf.sprintf "Q%d report count" id)
        (Engine.report_count e) (List.length mine);
      checkb (Printf.sprintf "Q%d reports" id) true (mine = Engine.reports e))
    lone;
  checkb (Printf.sprintf "%d of %d intents report" !reporting port_intents) true
    (!reporting >= port_intents / 2);
  List.iter
    (fun (key, got) ->
      if key <> Newton_telemetry.Stats.Packets_processed then
        Alcotest.(check int)
          (Newton_telemetry.Stats.name key)
          (Array.fold_left
             (fun acc e -> acc + Newton_telemetry.Stats.get (Engine.sink e) key)
             0 lone)
          got)
    (Newton_telemetry.Stats.counters (Engine.sink shared))

(* ---------------- register recycling ---------------- *)

(* A query re-installed after a remove gets the removed instance's
   register arrays back, zeroed: its replay matches a fresh engine's
   report for report, register for register. *)
let test_recycled_arrays_start_clean () =
  let packets =
    trace ~attacks:Newton_trace.Attack.default_suite ~seed:7 ~flows:400
  in
  let compiled = List.map Newton_compiler.Compose.compile catalog in
  let replay e =
    Array.iter (Engine.process_packet e) packets;
    ( List.map Newton_query.Report.to_string (Engine.drain_reports e),
      List.concat_map
        (fun i ->
          List.map
            (fun (_, a) ->
              (Newton_sketch.Register_array.ops a,
               Newton_sketch.Register_array.fold (fun acc v -> (acc * 31) + v) 0 a))
            (Engine.instance_arrays i))
        (Engine.instances e) )
  in
  let used = Engine.create ~switch_id:0 () in
  let uids = List.map (fun c -> fst (Engine.install used c)) compiled in
  ignore (replay used);
  List.iter (fun uid -> ignore (Engine.remove used uid)) uids;
  List.iter (fun c -> ignore (Engine.install used c)) compiled;
  let fresh = Engine.create ~switch_id:0 () in
  List.iter (fun c -> ignore (Engine.install fresh c)) compiled;
  checkb "recycled engine replays like a fresh one" true (replay used = replay fresh)

(* ---------------- split vs whole suites ----------------

   One stage per switch cuts every H->S->R suite across switches, so
   each CQE slice runs its modules one slot at a time; one engine
   holding the whole chain runs each suite in one piece.  Both must
   report the same multiset with no software deferral (a
   {!Report.diff} with nothing missing, extra or changed), and every
   state bank must hold the same registers on both sides. *)

let registers arr = Newton_sketch.Register_array.fold (fun acc v -> v :: acc) [] arr

(* A combine reads the sibling branch's bank.  Cut at one stage per
   switch, that bank sits on another switch and the read sees 0 (the
   state dispersion of paper §7), so such an intent's reports may
   differ from the whole chain's (Q6 and Q7 do on this trace); its
   banks are still compared. *)
let reads_sibling_bank (c : Newton_compiler.Compose.t) =
  Array.exists
    (List.exists (fun (s : Newton_compiler.Ir.slot) ->
         match s.Newton_compiler.Ir.cfg with
         | Newton_compiler.Ir.S_cfg { op = Newton_compiler.Ir.S_read _; _ } -> true
         | _ -> false))
    c.Newton_compiler.Compose.branches

(* The compared intents that report nothing on this trace, with why:
   their diffs compare two empty sides and check no report.  The test
   asserts that exactly these are silent, so an intent that starts
   reporting must leave the list. *)
let silent_on_split_trace =
  [ (10, "no host receives more than 500,000 bytes in a window (at most 221,193)");
    (13, "the trace carries no ICMP packet") ]

let test_split_suites_match_whole () =
  let packets =
    trace ~attacks:Newton_trace.Attack.extended_suite ~seed:17 ~flows:1_500
  in
  let silent = ref [] in
  List.iter
    (fun (q : Newton_query.Ast.t) ->
      let compiled = Newton_compiler.Compose.compile q in
      let name = Printf.sprintf "Q%d" q.Newton_query.Ast.id in
      let whole = Engine.create ~switch_id:0 () in
      ignore (Engine.install whole compiled);
      let stages = compiled.Newton_compiler.Compose.stats.Newton_compiler.Compose.stages in
      let split = Deploy.create (Topo.linear stages) in
      ignore (Deploy.deploy ~mode:`Cqe ~stages_per_switch:1 split compiled);
      let src_host, dst_host =
        match Topo.hosts (Deploy.topo split) with
        | [ a; b ] -> (a, b)
        | _ -> Alcotest.failf "%s: linear topology without two hosts" name
      in
      Array.iter
        (fun pkt ->
          Engine.process_packet whole pkt;
          Deploy.process_packet split ~src_host ~dst_host pkt)
        packets;
      (* An instance rolls its window only when a packet reaches it, so
         roll every side to the last timestamp before reading banks. *)
      let last = Newton_packet.Flat.of_packet packets.(Array.length packets - 1) in
      Engine.begin_packet whole last;
      for s = 0 to stages - 1 do
        Engine.begin_packet (Deploy.engine split s) last
      done;
      checkb (name ^ ": no software deferral") true (Deploy.software_deferrals split = 0);
      if not (reads_sibling_bank compiled) then begin
        let d =
          Newton_query.Report.diff ~reference:(Engine.reports whole)
            ~measured:(Deploy.all_reports split)
        in
        Alcotest.(check int) (name ^ ": no report missing") 0 (List.length d.missing);
        Alcotest.(check int) (name ^ ": no extra report") 0 (List.length d.extra);
        Alcotest.(check int) (name ^ ": no changed value") 0 (List.length d.changed);
        if Engine.reports whole = [] then silent := q.Newton_query.Ast.id :: !silent
      end;
      (* Switch [s] runs stage [s] of packets from the first host to
         the last; its other slices serve the reverse path. *)
      let split_arrays =
        List.concat_map
          (fun s ->
            List.concat_map
              (fun i -> if Engine.instance_stage_lo i = s then Engine.instance_arrays i else [])
              (Engine.instances (Deploy.engine split s)))
          (List.init stages Fun.id)
      in
      List.iter
        (fun ((b, p, s), arr) ->
          let bank = Printf.sprintf "%s: bank (%d,%d,%d)" name b p s in
          match List.assoc_opt (b, p, s) split_arrays with
          | Some arr' -> checkb (bank ^ " registers") true (registers arr = registers arr')
          | None -> Alcotest.failf "%s missing from the split deployment" bank)
        (List.concat_map Engine.instance_arrays (Engine.instances whole)))
    catalog;
  Alcotest.(check (list int))
    "compared intents with no whole-chain report" (List.map fst silent_on_split_trace)
    (List.sort compare !silent)

(* ---------------- uid index ---------------- *)

(* [find_instance] answers exactly what a scan of [instances] in
   install order answers, for every uid in [uids]. *)
let index_agrees engine uids =
  List.for_all
    (fun uid ->
      match
        ( Engine.find_instance engine uid,
          List.find_opt (fun i -> Engine.instance_uid i = uid)
            (Engine.instances engine) )
      with
      | None, None -> true
      | Some a, Some b -> a == b
      | _ -> false)
    uids

let qcheck_engine_index =
  let op =
    QCheck.Gen.(
      oneof
        [ map2 (fun u q -> `Install (u, q)) (int_range 1 6) (int_range 0 16);
          map (fun u -> `Install_fresh u) (int_range 0 16);
          map (fun u -> `Remove u) (int_range 1 8) ])
  in
  QCheck.Test.make ~count:60 ~name:"engine: find_instance = scan of instances"
    (QCheck.make QCheck.Gen.(list_size (int_range 1 30) op))
    (fun ops ->
      let compiled = Array.of_list (List.map Newton_compiler.Compose.compile catalog) in
      let e = Engine.create ~switch_id:0 () in
      List.for_all
        (fun op ->
          (match op with
          | `Install (uid, q) -> (
              (* a uid may be installed twice: the first one stays found *)
              try ignore (Engine.install e ~uid compiled.(q))
              with Engine.Rules_exhausted _ -> ())
          | `Install_fresh q -> (
              try ignore (Engine.install e compiled.(q))
              with Engine.Rules_exhausted _ -> ())
          | `Remove uid -> ignore (Engine.remove e uid));
          index_agrees e (List.init 40 Fun.id))
        ops)

(* Deploy, undeploy, fail and repair switches, and replay traffic so
   queries longer than the path lazily install their software
   continuation; every engine's index keeps agreeing with its list. *)
let qcheck_deploy_index =
  let op =
    QCheck.Gen.(
      frequency
        [ (3, map2 (fun id spw -> `Deploy (id, spw)) (int_range 1 17) (int_range 1 3));
          (2, map (fun k -> `Undeploy k) (int_range 0 7));
          (1, map (fun s -> `Fail s) (int_range 0 3));
          (1, map (fun s -> `Repair s) (int_range 0 3)) ])
  in
  QCheck.Test.make ~count:15 ~name:"controller: find_instance = scan after undeploy/recovery"
    (QCheck.make QCheck.Gen.(list_size (int_range 1 12) op))
    (fun ops ->
      let d = Deploy.create (Topo.linear 4) in
      let packets =
        trace ~attacks:Newton_trace.Attack.default_suite ~seed:5 ~flows:60
      in
      let replay () =
        Array.iter
          (fun pkt ->
            let host f =
              Topo.host_of_ip (Deploy.topo d)
                (Newton_packet.Packet.get pkt f)
            in
            Deploy.process_packet d ~src_host:(host Newton_packet.Field.Src_ip)
              ~dst_host:(host Newton_packet.Field.Dst_ip) pkt)
          packets
      in
      (* every slice uid ops of this length can produce, dataplane
         (uid*1000+d) and software continuation (uid*1000+500+d) *)
      let uids =
        List.concat_map
          (fun u -> List.init 8 (fun k -> (u * 1000) + k) @ List.init 8 (fun k -> (u * 1000) + 500 + k))
          (List.init 14 Fun.id)
      in
      let engines () =
        Deploy.software_engine d
        :: List.init (Topo.num_switches (Deploy.topo d)) (Deploy.engine d)
      in
      List.for_all
        (fun op ->
          (match op with
          | `Deploy (id, spw) ->
              ignore (Deploy.deploy_checked ~stages_per_switch:spw d (compile_id id))
          | `Undeploy k -> (
              match List.nth_opt (Deploy.deployments d) k with
              | Some dep -> ignore (Deploy.undeploy d dep.Deploy.uid)
              | None -> ())
          | `Fail s -> ignore (Deploy.fail_switch d s)
          | `Repair s -> ignore (Deploy.repair_switch d s));
          replay ();
          List.for_all (fun e -> index_agrees e uids) (engines ()))
        ops)

let suite =
  [
    ("device step minor words per packet", `Quick, test_device_minor_words);
    ("CQE walk minor words per packet", `Quick, test_cqe_minor_words);
    ("window rolls follow each instance's length", `Quick, test_window_rolls_per_length);
    ("recycled register arrays start clean", `Quick, test_recycled_arrays_start_clean);
    ("split suites replay like whole ones", `Quick, test_split_suites_match_whole);
    ("one classifier = one engine per intent", `Quick, test_classifier_matches_lone_engines);
    QCheck_alcotest.to_alcotest qcheck_engine_index;
    QCheck_alcotest.to_alcotest qcheck_deploy_index;
  ]
