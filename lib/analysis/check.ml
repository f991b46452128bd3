(** The analysis driver: builds the per-query context (compiling once),
    runs every registered pass, and renders reports.

    The driver guarantees {e check never raises on user input}: each
    pass runs under a handler that converts an escaped exception into
    an NA099 diagnostic, compilation failures become NA045 (unless a
    structural error already explains them), and query construction
    errors ({!Ast.Invalid}) become their structural diagnostics. *)

open Newton_query
open Newton_compiler
open Newton_util

(** Registered passes, in severity-of-subject order. *)
let passes : (module Pass.S) list =
  [
    (module Pass_structure);
    (module Pass_width);
    (module Pass_space);
    (module Pass_dataflow);
    (module Pass_threshold);
    (module Pass_sketch);
    (module Pass_capacity);
    (module Pass_conflicts);
    (module Pass_cuts);
    (module Pass_p4);
  ]

(* The rule generator runs at most once per context: the P4 pass and
   NA093's gate both read its verdict. *)
let rules_of compiled =
  lazy (Option.map (fun c -> Newton_p4gen.Rules.entries c) compiled)

(* Compile once; a failure is recorded as its message, not raised. *)
let compile (cfg : Pass.config) query =
  match Compose.compile ~options:cfg.Pass.options query with
  | c -> Ok c
  | exception Decompose.Unsupported msg -> Error msg
  | exception Ast.Invalid { errors; _ } -> Error (Ast.errors_to_string errors)

(* The one context builder: every entry point below hands it a query
   whose compile it has already attempted. *)
let ctx_of ~cfg ~target ~peers ~co_resident query compiled =
  let compiled, compile_error =
    match compiled with Ok c -> (Some c, None) | Error msg -> (None, Some msg)
  in
  {
    Pass.query;
    cfg;
    compiled;
    compile_error;
    rules = rules_of compiled;
    peers;
    co_resident;
    target;
  }

let make_ctx ?(cfg = Pass.default_config) ?target ?(peers = []) ?(co_resident = [])
    query =
  ctx_of ~cfg ~target ~peers ~co_resident query (compile cfg query)

(** Run every pass over a prepared context. *)
let check_ctx (ctx : Pass.ctx) =
  let query = ctx.Pass.query in
  let diags =
    List.concat_map
      (fun (module P : Pass.S) ->
        try P.run ctx
        with exn ->
          [
            Diag.make ~code:"NA099" ~severity:Diag.Error ~query
              (Printf.sprintf "analysis pass %s crashed: %s" P.name
                 (Printexc.to_string exn));
          ])
      passes
  in
  let diags =
    match ctx.Pass.compile_error with
    | Some msg when not (Diag.has_errors diags) ->
        (* Nothing else explains why the query cannot compile. *)
        Diag.make ~code:"NA045" ~severity:Diag.Error ~query
          ~hint:"rewrite the primitive the compiler cannot host"
          (Printf.sprintf "query does not compile: %s" msg)
        :: diags
    | _ -> diags
  in
  List.sort Diag.compare diags

(** Analyse one query. *)
let check_query ?cfg ?target ?peers ?co_resident query =
  check_ctx (make_ctx ?cfg ?target ?peers ?co_resident query)

(* A placement target is computed from the compiled program, so a query
   that does not compile has none. *)
let target_for target compiled =
  match (target, compiled) with Some f, Ok c -> f c | _ -> None

(** The admission step: compile once, analyse once. *)
let admit ?(cfg = Pass.default_config) ?target ?(peers = []) ?(co_resident = [])
    query =
  let compiled = compile cfg query in
  let diags =
    check_ctx
      (ctx_of ~cfg ~target:(target_for target compiled) ~peers ~co_resident
         query compiled)
  in
  match compiled with
  | Ok c when not (Diag.has_errors diags) -> Ok (c, diags)
  | _ -> Error diags

(** Analyse a set together: each query sees the others as peers and
    co-residents, so conflicts and stacked capacity surface.  Every
    query compiles once, and its peer record (its space) is built
    once. *)
let check_queries ?(cfg = Pass.default_config) ?target queries =
  let entries =
    List.map
      (fun q ->
        let c = compile cfg q in
        (c, Pass.peer q (Result.to_option c)))
      queries
  in
  List.concat_map
    (fun (c, (self : Pass.peer)) ->
      let q = self.Pass.p_query in
      let peers =
        List.filter_map
          (fun (_, (p : Pass.peer)) -> if p.Pass.p_query != q then Some p else None)
          entries
      in
      let co_resident =
        List.filter_map (fun (p : Pass.peer) -> p.Pass.p_compiled) peers
      in
      check_ctx
        (ctx_of ~cfg ~target:(target_for target c) ~peers ~co_resident q c))
    entries

(** The deployment gate: analyse an already-compiled query against the
    deployed intents' peer records.  The compiled artifact (with its
    actual options) is analysed directly — no recompilation.  Capacity
    is judged for the query alone (saturation by many small queries
    still surfaces at install time, where rollback handles it);
    conflicts see every deployed peer. *)
let admit_compiled ?target ~peers compiled =
  let cfg = { Pass.default_config with Pass.options = compiled.Compose.options } in
  check_ctx
    (ctx_of ~cfg ~target ~peers ~co_resident:[] compiled.Compose.query
       (Ok compiled))

(** {!admit_compiled} against [deployed] programs, building their peer
    records here. *)
let admission ?target ~deployed compiled =
  admit_compiled ?target
    ~peers:(List.map (fun (q, c) -> Pass.peer q (Some c)) deployed)
    compiled

(** Human rendering of a report (one diagnostic per paragraph);
    [?witness] appends witness-packet lines. *)
let explain ?witness diags =
  String.concat "\n" (List.map (Diag.to_string ?witness) diags)

let severity_counts diags =
  List.fold_left
    (fun (e, w, i) d ->
      match d.Diag.severity with
      | Diag.Error -> (e + 1, w, i)
      | Diag.Warning -> (e, w + 1, i)
      | Diag.Info -> (e, w, i + 1))
    (0, 0, 0) diags

(** Stable JSON report: a summary object plus the diagnostics array,
    re-sorted into (query, span, code) order so the artifact is stable
    under pass additions and severity retunes; [?witness] embeds
    witness packets. *)
let report_to_json ?witness diags =
  let e, w, i = severity_counts diags in
  let diags = List.sort Diag.compare_stable diags in
  Json.Obj
    [
      ( "summary",
        Json.Obj
          [
            ("errors", Json.Int e);
            ("warnings", Json.Int w);
            ("infos", Json.Int i);
          ] );
      ("diagnostics", Json.List (List.map (Diag.to_json ?witness) diags));
    ]

(** Report exit code; [--strict] promotes warnings to errors. *)
let exit_code ?(strict = false) diags =
  let c = Diag.exit_code diags in
  if strict && c = 1 then 2 else c
