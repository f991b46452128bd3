(** Reactive intents: automatic runtime drill-down.

    The paper motivates on-demand queries with the operator loop "detect
    an anomaly → install a refined query to zoom in" (§1, §3.1).  This
    service automates that loop: a {!rule} binds a trigger query to a
    template; whenever the trigger reports a new key, the template is
    instantiated with that key and installed into the running device —
    milliseconds, no interruption — up to a per-rule instance budget.

    Typical use: a standing Q5 (UDP-DDoS victims) whose reports spawn a
    per-victim attacker-enumeration query.  {!refinement} builds the
    rules of iterative prefix refinement. *)

open Newton_query

type rule = {
  trigger_id : int;                   (** query id whose reports trigger *)
  template : Report.t -> Ast.t;       (** refined query for a report *)
  max_instances : int;                (** per-rule budget of spawned queries *)
}

(** A spawned drill-down instance. *)
type spawned = {
  rule_trigger : int;
  trigger_keys : int array;
  handle : Facade.handle;
  query : Ast.t;
  latency : float; (** rule-install time, seconds *)
}

type t = {
  device : Facade.Device.t;
  rules : rule list;
  mutable spawned : spawned list;
  mutable consumed : int; (** device reports already scanned *)
}

let create device rules = { device; rules; spawned = []; consumed = 0 }

let device t = t.device
let spawned t = List.rev t.spawned

let instances_of t trigger_id =
  List.length (List.filter (fun s -> s.rule_trigger = trigger_id) t.spawned)

let already_spawned t trigger_id keys =
  List.exists
    (fun s -> s.rule_trigger = trigger_id && s.trigger_keys = keys)
    t.spawned

(** Scan reports that arrived since the last step and install drill-down
    queries for new trigger keys.  Returns the queries spawned by this
    step (with their install latencies). *)
let step t =
  let reports = Facade.Device.reports t.device in
  let fresh = List.filteri (fun i _ -> i >= t.consumed) reports in
  t.consumed <- List.length reports;
  List.filter_map
    (fun (r : Report.t) ->
      match List.find_opt (fun rule -> rule.trigger_id = r.Report.query_id) t.rules with
      | None -> None
      | Some rule ->
          if
            already_spawned t rule.trigger_id r.Report.keys
            || instances_of t rule.trigger_id >= rule.max_instances
          then None
          else begin
            let q = rule.template r in
            let handle, latency = Facade.Device.add_query t.device q in
            t.spawned <-
              { rule_trigger = rule.trigger_id; trigger_keys = r.Report.keys;
                handle; query = q; latency }
              :: t.spawned;
            Some (q, latency)
          end)
    fresh

(** Tear down every spawned instance (e.g. after mitigation); returns
    how many were removed. *)
let retract_all t =
  let n =
    List.fold_left
      (fun acc s ->
        match Facade.Device.remove_query t.device s.handle with
        | Some _ -> acc + 1
        | None -> acc)
      0 t.spawned
  in
  t.spawned <- [];
  n

(** Convenience: process a trace while stepping the reactive loop every
    [step_every] packets (default: once per 1000). *)
let process_trace ?(step_every = 1000) t trace =
  let count = ref 0 in
  Newton_trace.Gen.iter
    (fun pkt ->
      Facade.Device.process_packet t.device pkt;
      incr count;
      if !count mod step_every = 0 then ignore (step t))
    trace;
  ignore (step t)

(* ---------------- prefix refinement ---------------- *)

let mask_of_len len = if len <= 0 then 0 else 0xFFFFFFFF lxor ((1 lsl (32 - len)) - 1)

(* The refinement query: scoped to [prefix]/[scope_len], keyed on
   [key_len]-bit prefixes of [field]. *)
let level_query ~base_id ~field ~th ~prefix ~scope_len ~key_len =
  let key = Ast.key ~mask:(mask_of_len key_len) field in
  let scope =
    if scope_len = 0 then []
    else
      [ Ast.Filter
          [ Ast.Cmp
              { field; mask = mask_of_len scope_len; op = Ast.Eq;
                value = prefix } ] ]
  in
  Ast.chain
    ~id:(base_id + key_len)
    ~name:(Printf.sprintf "refine_%d_%x" key_len prefix)
    ~description:"prefix refinement level"
    (scope
    @ [ Ast.Map [ key ];
        Ast.Reduce { keys = [ key ]; agg = Ast.Count };
        Ast.Filter [ Ast.result_gt th ];
        Ast.Map [ key ] ])

(** Iterative prefix refinement: a root query on the coarsest prefix,
    and one rule per level whose crossing prefixes install the next
    level's query scoped to them.  Sonata recompiles the program for
    every level (§2.2); here each step is a millisecond rule install. *)
let refinement ?(base_id = 700) ~field ~levels ~th () =
  let query = level_query ~base_id ~field ~th in
  let rec rules = function
    | level :: (finer :: _ as rest) ->
        { trigger_id = base_id + level;
          template =
            (fun r -> query ~prefix:r.Report.keys.(0) ~scope_len:level ~key_len:finer);
          max_instances = max_int }
        :: rules rest
    | _ -> []
  in
  match levels with
  | [] -> invalid_arg "Reactive.refinement: need at least one level"
  | coarsest :: _ ->
      if List.exists (fun x -> x < 1 || x > 32) levels then
        invalid_arg "Reactive.refinement: prefix lengths must be in [1,32]";
      if List.sort compare levels <> levels then
        invalid_arg "Reactive.refinement: levels must be coarse to fine";
      (query ~prefix:0 ~scope_len:0 ~key_len:coarsest, rules levels)
