(** CI perf-regression gate for the parallel replay bench.

    Diffs a fresh out/bench_parallel.json against the committed
    baseline, bench/baselines/parallel.json, and fails — exit 1 — when
    the jobs=4 speedup regresses below [baseline * (1 - tolerance)].
    Both are telemetry snapshots (Newton_telemetry.Export.to_json); the
    gate reads the [newton_bench_parallel_speedup] gauge by its [jobs]
    label.  Speedup is a ratio of two measurements taken in the same
    process on the same machine, so it transfers across hosts far
    better than absolute seconds do; the gate therefore compares
    speedups only, and prints the [newton_bench_parallel_stage_seconds]
    (arena build / replay / merge) as context for diagnosing a failure
    rather than gating on them.

        compare.exe [--tolerance FRACTION]

    Tolerance defaults to 0.20 (±20%).  Exit 0 on pass, 1 on a speedup
    regression, 2 on unreadable or mismatched inputs. *)

module Json = Newton_util.Json

let baseline_path = "bench/baselines/parallel.json"
let current_path = "out/bench_parallel.json"
let gate_jobs = 4

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("error: " ^ s); exit 2) fmt

let usage () =
  prerr_endline "usage: compare.exe [--tolerance FRACTION]";
  exit 2

let tolerance () =
  match List.tl (Array.to_list Sys.argv) with
  | [] -> 0.20
  | [ "--tolerance"; v ] -> (
      match float_of_string_opt v with
      | Some f when f >= 0.0 && f < 1.0 -> f
      | _ -> fail "--tolerance wants a fraction in [0, 1), got %s" v)
  | _ -> usage ()

let read_json path =
  if not (Sys.file_exists path) then fail "%s does not exist" path;
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Json.of_string s with
  | j -> j
  | exception Json.Parse_error { pos; msg } ->
      fail "%s: JSON parse error at %d: %s" path pos msg

(* The samples of gauge [newton_bench_parallel_<name>] in a snapshot,
   as (labels, value). *)
let samples json name =
  let list key j = Option.value ~default:[] (Option.bind (Json.member key j) Json.to_list) in
  list "metrics" json
  |> List.filter (fun m ->
         Json.member "name" m = Some (Json.String ("newton_bench_parallel_" ^ name)))
  |> List.concat_map (list "samples")
  |> List.filter_map (fun s ->
         let labels = match Json.member "labels" s with Some (Json.Obj l) -> l | _ -> [] in
         match Json.member "value" s with
         | Some (Json.Int i) -> Some (labels, float_of_int i)
         | Some (Json.Float f) -> Some (labels, f)
         | _ -> None)

let label key labels = Option.bind (List.assoc_opt key labels) Json.to_string_opt

let packets path json =
  match samples json "trace_packets" with
  | (_, v) :: _ -> v
  | [] -> fail "%s: no newton_bench_parallel_trace_packets gauge" path

(* The speedup gauge, as (jobs, speedup) pairs. *)
let speedups path json =
  match samples json "speedup" with
  | [] -> fail "%s: no newton_bench_parallel_speedup gauge" path
  | l ->
      List.map
        (fun (labels, v) ->
          match Option.bind (label "jobs" labels) int_of_string_opt with
          | Some j -> (j, v)
          | None -> fail "%s: speedup sample without a jobs label" path)
        l

(* Stage seconds are informational; a snapshot may lack them. *)
let stages path json =
  let stage s =
    List.find_map
      (fun (l, v) ->
        if label "jobs" l = Some (string_of_int gate_jobs) && label "stage" l = Some s
        then Some v
        else None)
      (samples json "stage_seconds")
  in
  match (stage "arena_build", stage "replay", stage "merge") with
  | Some b, Some r, Some m ->
      Printf.printf
        "  %s stages at jobs=%d: arena build %.3fs, replay %.3fs, merge \
         %.3fs\n"
        path gate_jobs b r m
  | _ -> ()

let () =
  let tolerance = tolerance () in
  let baseline = read_json baseline_path in
  let current = read_json current_path in
  let b_speedups = speedups baseline_path baseline in
  let c_speedups = speedups current_path current in
  let b_pkts = packets baseline_path baseline in
  let c_pkts = packets current_path current in
  if b_pkts <> c_pkts then
    Printf.printf
      "note: trace size differs (baseline %.0f vs current %.0f packets) — \
       speedups are still comparable, seconds are not\n"
      b_pkts c_pkts;
  Printf.printf "%-6s %18s %18s %8s\n" "jobs" "baseline speedup" "current speedup"
    "delta";
  List.iter
    (fun (j, cs) ->
      match List.assoc_opt j b_speedups with
      | None -> Printf.printf "%-6d %18s %18.2fx %8s\n" j "-" cs "new"
      | Some bs ->
          Printf.printf "%-6d %17.2fx %17.2fx %+7.1f%%\n" j bs cs
            (100.0 *. ((cs -. bs) /. bs)))
    c_speedups;
  match
    (List.assoc_opt gate_jobs c_speedups, List.assoc_opt gate_jobs b_speedups)
  with
  | None, _ -> fail "%s has no jobs=%d entry to gate on" current_path gate_jobs
  | _, None -> fail "%s has no jobs=%d entry to gate on" baseline_path gate_jobs
  | Some cs, Some bs ->
      let floor = bs *. (1.0 -. tolerance) in
      Printf.printf
        "gate: jobs=%d speedup %.2fx vs baseline %.2fx (floor %.2fx = \
         baseline - %.0f%%)\n"
        gate_jobs cs bs floor (100.0 *. tolerance);
      stages baseline_path baseline;
      stages current_path current;
      if cs < floor then begin
        Printf.printf
          "FAIL: jobs=%d speedup regressed below the floor — see the stage \
           timings above for where the time went\n"
          gate_jobs;
        exit 1
      end
      else Printf.printf "PASS\n"
