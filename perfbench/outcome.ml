(** What one workload run hands back to [newton_perf]'s main. *)

type t = {
  consistent : bool;
      (** every invariant of the run held, so its checks mean something:
          e.g. no packet lost between capture and device, repeated passes
          agree with each other *)
  attempted : int;
  failed : int;
  end_to_end : (string * float) list;
  per_layer : (string * float) list;
  inputs : (string * Newton_util.Json.t) list;
  checks : (string * Newton_util.Json.t) list;
}

let now = Unix.gettimeofday

(** Input facts shared by every workload. *)
let host_inputs () =
  let open Newton_util.Json in
  [
    ("host_cores", Int (Newton_runtime.Domain_pool.recommended_jobs ()));
    ("ocaml_version", String Sys.ocaml_version);
    ("domain_pool_parallel", Bool Newton_runtime.Domain_pool.parallel);
  ]

(** CPU time the hypervisor gave to other guests so far (the [steal]
    column of [/proc/stat]), in seconds summed over CPUs; [nan] where
    the kernel does not report it.  Recorded with a run's inputs: a run
    that lost much of its CPU this way reads slow for reasons outside
    the program. *)
let steal_s () =
  let first = List.hd (String.split_on_char '\n' (Rss.read_file "/proc/stat")) in
  match List.filter (( <> ) "") (String.split_on_char ' ' first) with
  | "cpu" :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: steal :: _ ->
      (* clock ticks of USER_HZ = 100 *)
      Option.fold ~none:nan ~some:(fun t -> t /. 100.) (float_of_string_opt steal)
  | _ -> nan

(** The sample count behind [submit_tail_ms] and the highest percentile
    it supports (at least ten samples beyond it; [Null] for none), so a
    run whose count falls short of [Metrics.tail_pct] shows it. *)
let tail_inputs n =
  let open Newton_util.Json in
  [
    ("submit_samples", Int n);
    ( "highest_tail_percentile",
      match Stat.tail_percentile n with Some p -> Int p | None -> Null );
  ]

(** [(traced - untraced) / untraced] of two medians; the cost of tracing
    as a share of the untraced figure (for a rate, the share lost). *)
let overhead ~lower_is_better ~traced ~untraced =
  if untraced = 0. || Float.is_nan traced || Float.is_nan untraced then 0.
  else if lower_is_better then (traced -. untraced) /. untraced
  else (untraced -. traced) /. untraced
