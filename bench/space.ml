(** Exact packet-space solver cost: what the NA090–NA094 space passes
    add on top of the ~7 µs interval-analysis baseline.

    Two layers:

    - solver ops — raw throughput of the ternary bit-cube primitives
      (atom compilation, intersection, union, difference, containment,
      model extraction) on catalog-shaped operand sets: one op is a
      sweep over every adjacent pair of catalog spaces, or for
      containment over every ordered pair (272 questions, Q17 ⊆ Q12
      among them)
    - pass latency — per-intent cost of the space pass family alone,
      and of a full [Check.check_query] with and without it, so the
      marginal price of exactness is visible next to the interval
      baseline bench/analysis.ml pins

    Results go to the table and a telemetry snapshot of
    [newton_bench_space_*] gauges, out/bench_space.json. *)

open Newton_query
module Space = Newton_analysis.Space

(* Ops per second over [iters] runs of [f]. *)
let ops_per_s iters f =
  ignore (f ());
  let t0 = Unix.gettimeofday () in
  for _ = 1 to iters do
    ignore (f ())
  done;
  float_of_int iters /. (Unix.gettimeofday () -. t0)

let time_mean iters f =
  ignore (f ());
  let t0 = Unix.gettimeofday () in
  for _ = 1 to iters do
    ignore (f ())
  done;
  (Unix.gettimeofday () -. t0) /. float_of_int iters

let branch_space branch =
  Space.of_preds (List.map snd (Ast.cmp_atoms branch))

let query_space q =
  List.fold_left
    (fun acc b -> Space.union acc (branch_space b))
    Space.empty q.Ast.branches

let run () =
  Common.banner "Exact packet-space solver (NA090-NA094)";
  let iters = Common.getenv_int "NEWTON_BENCH_SPACE_ITERS" 2000 in
  let queries = Catalog.all () @ Catalog.extras () in
  let spaces = List.map query_space queries in
  Common.note "%d catalog intents, %d iterations per op" (List.length queries)
    iters;
  let adjacent =
    (* every adjacent pair of catalog spaces *)
    let rec go = function
      | a :: (b :: _ as rest) -> (a, b) :: go rest
      | _ -> []
    in
    go spaces
  in
  let ordered =
    (* every ordered pair of distinct catalog spaces: the containment
       questions NA092 asks of a full deployment, each side on the left *)
    List.concat
      (List.mapi
         (fun i a ->
           List.filteri (fun j _ -> i <> j) spaces |> List.map (fun b -> (a, b)))
         spaces)
  in
  let on pairs f () = List.iter (fun (a, b) -> ignore (f a b)) pairs in
  let t =
    Common.T.create
      ~aligns:[ Common.T.Left; Common.T.Right ]
      [ "solver op (catalog shapes)"; "ops/s" ]
  in
  let solver_ops =
    [
      ( "compile (query -> space)",
        ops_per_s iters (fun () -> List.iter (fun q -> ignore (query_space q)) queries) );
      ("inter", ops_per_s iters (on adjacent Space.inter));
      ("union", ops_per_s iters (on adjacent Space.union));
      ("diff", ops_per_s iters (on adjacent Space.diff));
      ("subset", ops_per_s iters (on ordered Space.subset));
      ( "model",
        ops_per_s iters (fun () -> List.iter (fun s -> ignore (Space.model s)) spaces) );
    ]
  in
  List.iter
    (fun (name, ops) -> Common.T.add_row t [ name; Printf.sprintf "%.0f" ops ])
    solver_ops;
  Common.T.print t;
  (* per-intent pass latency: the space passes alone, and the marginal
     cost inside a full check next to the interval baseline. *)
  let check_iters = Common.getenv_int "NEWTON_BENCH_SPACE_CHECK_ITERS" 200 in
  let mean_over f =
    List.fold_left (fun acc q -> acc +. time_mean check_iters (fun () -> f q)) 0.0
      queries
    /. float_of_int (List.length queries)
  in
  let space_pass_mean =
    mean_over (fun q ->
        Newton_analysis.Pass_space.run (Newton_analysis.Check.make_ctx q))
  in
  let full_check_mean =
    mean_over (fun q -> Newton_analysis.Check.check_query q)
  in
  let t2 =
    Common.T.create
      ~aligns:[ Common.T.Left; Common.T.Right ]
      [ "per-intent latency"; "mean us" ]
  in
  Common.T.add_row t2
    [ "space passes alone"; Printf.sprintf "%.1f" (space_pass_mean *. 1e6) ];
  Common.T.add_row t2
    [ "full check (all passes)"; Printf.sprintf "%.1f" (full_check_mean *. 1e6) ];
  Common.T.print t2;
  Common.maybe_dat t "space_solver";
  let module M = Newton_telemetry.Metric in
  Common.write_snapshot "space"
    [
      Common.gauge "space_queries" "Catalog intents swept"
        [ M.vi (List.length queries) ];
      Common.gauge "space_iterations" "Iterations per solver op" [ M.vi iters ];
      Common.gauge "space_ops_per_second" "Solver ops per second on catalog shapes"
        (List.map (fun (op, v) -> M.v ~labels:[ ("op", op) ] v) solver_ops);
      Common.gauge "space_check_seconds" "Mean seconds per intent"
        [ M.v ~labels:[ ("op", "space_passes") ] space_pass_mean;
          M.v ~labels:[ ("op", "full_check") ] full_check_mean ];
    ]
