(** Set-ups in a fresh process.

    A user's [newton run] or [newton serve] process sets up once, on a
    fresh heap: the register arrays of every device it creates are new
    memory the process page-faults in.  Within one long-lived process,
    whether a later set-up gets that memory back already mapped depends
    on the allocator's state, which differs from run to run, and that
    made in-process set-up and install times bimodal across runs.  So
    the benchmark takes its set-up figures from set-ups made each in a
    process of its own ([newton_perf setup]), started between the
    measured units of the run. *)

(** Run [newton_perf setup] for [workload] and return the numbers it
    prints on its one line of output. *)
let setup ~workload ~seed ~dir =
  let exe = Sys.executable_name in
  let ic =
    Unix.open_process_args_in exe
      [| exe; "setup"; "--workload"; workload; "--seed"; string_of_int seed;
         "--dir"; dir |]
  in
  let line = In_channel.input_line ic in
  let numbers =
    Option.map
      (fun l -> List.filter_map float_of_string_opt (String.split_on_char ' ' l))
      line
  in
  match (Unix.close_process_in ic, numbers) with
  | Unix.WEXITED 0, Some (_ :: _ as xs) -> xs
  | _ -> failwith ("set-up child failed: " ^ workload)

(** Print the numbers of a child's set-up as its one line of output. *)
let print numbers =
  print_endline (String.concat " " (List.map (Printf.sprintf "%.17g") numbers))
