(** Shared helpers for the experiment harness. *)

module T = Newton_util.Tablefmt

let banner = T.banner

(** Standard evaluation traces: the two real-world trace substitutes. *)
let caida_trace ?(flows = 4000) ?(seed = 42) () =
  Newton_trace.Gen.generate ~attacks:Newton_trace.Attack.default_suite ~seed
    (Newton_trace.Profile.with_flows Newton_trace.Profile.caida_like flows)

let mawi_trace ?(flows = 4000) ?(seed = 43) () =
  Newton_trace.Gen.generate ~attacks:Newton_trace.Attack.default_suite ~seed
    (Newton_trace.Profile.with_flows Newton_trace.Profile.mawi_like flows)

(** Mixed v4/v6/tunnel trace: the extended attack corpus layered on the
    same Zipf background, exercising the IPv6, ICMPv6 and VXLAN/GRE
    decode paths alongside plain IPv4. *)
let mixed_trace ?(flows = 4000) ?(seed = 44) () =
  Newton_trace.Gen.generate ~attacks:Newton_trace.Attack.extended_suite ~seed
    (Newton_trace.Profile.with_flows Newton_trace.Profile.caida_like flows)

let all_queries () = Newton_query.Catalog.all ()

let compile = Newton_compiler.Compose.compile

let compile_with opts q = Newton_compiler.Compose.compile ~options:opts q

let pct x = Printf.sprintf "%.1f%%" (100.0 *. x)

let note fmt = Printf.printf ("  " ^^ fmt ^^ "\n")

(** A positive integer from the environment, [default] when unset or
    not one. *)
let getenv_int name default =
  match Option.bind (Sys.getenv_opt name) int_of_string_opt with
  | Some v when v > 0 -> v
  | _ -> default

(** One gauge family of a bench artifact, named [newton_bench_<name>]. *)
let gauge name help samples =
  Newton_telemetry.Metric.gauge ~name:("newton_bench_" ^ name) ~help samples

(** Write a bench's artifact, a telemetry snapshot of its figures, to
    out/bench_[name].json in {!Newton_telemetry.Export.to_json}'s
    schema. *)
let write_snapshot name snap =
  let path = Printf.sprintf "out/bench_%s.json" name in
  if not (Sys.file_exists "out") then Sys.mkdir "out" 0o755;
  let oc = open_out path in
  output_string oc (Newton_telemetry.Export.to_json_string snap);
  output_char oc '\n';
  close_out oc;
  note "[json written to %s]" path

(** When NEWTON_BENCH_DATA is set to a directory, benches also write
    their tables as gnuplot-friendly .dat files there. *)
let maybe_dat table name =
  match Sys.getenv_opt "NEWTON_BENCH_DATA" with
  | None -> ()
  | Some dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let path = Filename.concat dir (name ^ ".dat") in
      T.write_dat table path;
      Printf.printf "  [data written to %s]\n" path
