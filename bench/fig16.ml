(** Figure 16: resource multiplexing with concurrent queries (all clones
    of Q4).  Sonata chains queries sequentially, so tables and stages are
    strictly additive.  S-Newton (clones monitor the {e same} traffic)
    must chain module suites too.  P-Newton (clones monitor {e different}
    traffic) installs each clone as rules in the {e same} modules — the
    module/stage count stays flat while only table entries grow. *)

open Common
open Newton_compiler

let run () =
  banner "Figure 16: concurrent Q4 clones — Sonata vs S-Newton vs P-Newton";
  let q4 = Newton_query.Catalog.q4 () in
  let c = compile q4 in
  let m = c.Compose.stats.Compose.modules_shared in
  let s = c.Compose.stats.Compose.stages in
  let rules = c.Compose.stats.Compose.rules in
  let t =
    T.create
      ~aligns:[ T.Right; T.Right; T.Right; T.Right; T.Right; T.Right;
                T.Right; T.Right ]
      [ "queries"; "Sonata tbl"; "Sonata stg"; "S-Newton mod"; "S-Newton stg";
        "P-Newton mod"; "P-Newton stg"; "P-Newton rules" ]
  in
  List.iter
    (fun n ->
      T.add_row t
        [ string_of_int n;
          string_of_int (Sonata_cost.concurrent_tables q4 n);
          string_of_int (Sonata_cost.concurrent_stages q4 n);
          string_of_int (m * n);
          string_of_int (s * n);
          string_of_int m;
          string_of_int s;
          string_of_int (rules * n) ])
    [ 1; 10; 25; 50; 75; 100 ];
  T.print t;
  maybe_dat t "fig16";

  (* Functional check: 100 concurrent Q4 clones on distinct traffic run
     in one device and each still detects its own scanner. *)
  let device = Newton.Device.create () in
  let n_clones = 100 in
  for _ = 1 to n_clones do
    ignore (Newton.Device.add_query device (Newton_query.Catalog.q4 ()))
  done;
  let trace =
    Newton_trace.Gen.generate
      ~attacks:
        [ Newton_trace.Attack.Port_scan
            { scanner = Newton_trace.Attack.host_of 2;
              victim = Newton_trace.Attack.host_of 3; ports = 1500 } ]
      ~seed:7
      (Newton_trace.Profile.with_flows Newton_trace.Profile.caida_like 500)
  in
  Newton.Device.process_trace device trace;
  note "functional: %d concurrent Q4 instances, %d total rules, scanner detected by all: %b"
    n_clones
    (Newton.Device.monitor_rules device)
    (Newton.Device.message_count device >= n_clones);
  note "paper: Sonata and S-Newton grow linearly; P-Newton stays flat to 100 queries"
