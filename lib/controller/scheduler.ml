(** Concurrent-query scheduling — the open question of §7.

    The paper leaves "scheduling concurrent queries to optimally utilize
    data plane resources" as future work; this module provides a
    practical answer for one switch:

    - {b Admission}: a query is admitted only if every module cell it
      needs still has rule capacity and its minimum register demand
      fits the state-bank pool.
    - {b Register allocation}: admitted queries share the register pool
      by {e water-filling} on their declared weights (expected key
      populations): each query gets registers proportional to weight,
      clamped to its [min_registers]/[max_registers] band, with the
      remainder redistributed.  More keys → more registers → lower
      sketch error, which is exactly the accuracy lever Fig. 14
      measures.

    The scheduler is a planner: it returns per-query register budgets
    the controller then uses (recompiling each query with its assigned
    [registers] option before installation). *)

type demand = {
  query : Newton_query.Ast.t;
  weight : float;        (** expected distinct keys / load share *)
  min_registers : int;   (** below this, accuracy is unacceptable *)
  max_registers : int;   (** beyond this, more memory stops helping *)
}

(* A physical stage hosts two state banks (one per metadata set) within
   its SRAM budget; beyond ~8K registers per array the stage overflows,
   so that is the default ceiling. *)
let default_max_registers = 8192

let demand ?(weight = 1.0) ?(min_registers = 256)
    ?(max_registers = default_max_registers) query =
  if weight <= 0.0 then invalid_arg "Scheduler.demand: weight must be positive";
  if min_registers <= 0 || max_registers < min_registers then
    invalid_arg "Scheduler.demand: bad register band";
  { query; weight; min_registers; max_registers }

type assignment = {
  a_query : Newton_query.Ast.t;
  registers : int; (** per state-bank array for this query *)
}

type plan = {
  admitted : assignment list;
  rejected : Newton_query.Ast.t list; (** didn't fit *)
  pool_used : int;
  pool_total : int;
}

(* Rule-capacity admission: per (stage, kind, set) cell usage of already
   admitted queries plus the candidate must stay within the module-table
   capacity. *)
let rules_fit admitted_cells compiled =
  let open Newton_compiler in
  let needed = Hashtbl.create 16 in
  Array.iter
    (List.iter (fun s ->
         let cell = (s.Ir.stage, s.Ir.kind, s.Ir.meta) in
         Hashtbl.replace needed cell
           (1 + Option.value (Hashtbl.find_opt needed cell) ~default:0)))
    compiled.Compose.branches;
  Hashtbl.fold
    (fun cell n ok ->
      ok
      && Option.value (Hashtbl.find_opt admitted_cells cell) ~default:0 + n
         <= Newton_dataplane.Module_cost.rules_per_module)
    needed true

let commit_rules admitted_cells compiled =
  let open Newton_compiler in
  Array.iter
    (List.iter (fun s ->
         let cell = (s.Ir.stage, s.Ir.kind, s.Ir.meta) in
         Hashtbl.replace admitted_cells cell
           (1 + Option.value (Hashtbl.find_opt admitted_cells cell) ~default:0)))
    compiled.Compose.branches

(* Register arrays a query's compilation will instantiate (S slots that
   own arrays), at one register each — used to convert a per-array
   budget into pool consumption. *)
let arrays_needed compiled =
  let open Newton_compiler in
  Array.fold_left
    (fun acc slots ->
      acc
      + List.length
          (List.filter
             (fun s ->
               match s.Ir.cfg with
               | Ir.S_cfg { op = Ir.S_bf | Ir.S_cm _ | Ir.S_max _; _ } -> true
               | _ -> false)
             slots))
    0 compiled.Compose.branches

(* Water-filling: give each demand registers proportional to weight,
   clamp into its band, redistribute leftovers until stable. *)
let waterfill ~pool demands =
  let n = List.length demands in
  if n = 0 then []
  else begin
    let alloc = Array.make n 0 in
    let fixed = Array.make n false in
    let remaining_pool = ref pool in
    let remaining = ref (List.mapi (fun i d -> (i, d)) demands) in
    let continue = ref true in
    while !continue && !remaining <> [] do
      continue := false;
      let total_w = List.fold_left (fun a (_, d) -> a +. d.weight) 0.0 !remaining in
      let share d = float_of_int !remaining_pool *. d.weight /. total_w in
      (* Clamp anyone whose proportional share escapes their band. *)
      let clamped, free =
        List.partition
          (fun (_, d) ->
            let s = share d in
            s < float_of_int d.min_registers || s > float_of_int d.max_registers)
          !remaining
      in
      if clamped <> [] then begin
        List.iter
          (fun (i, d) ->
            let s = share d in
            let v =
              if s < float_of_int d.min_registers then d.min_registers
              else d.max_registers
            in
            alloc.(i) <- v;
            fixed.(i) <- true;
            remaining_pool := !remaining_pool - v)
          clamped;
        remaining := free;
        continue := true
      end
      else begin
        List.iter (fun (i, d) -> alloc.(i) <- int_of_float (share d)) free;
        remaining := []
      end
    done;
    Array.to_list alloc
  end

(** Plan admission and register allocation for one switch.

    [register_pool] is the total state-bank registers the switch grants
    Newton; each query compiles with the default options and must fit
    the module-table capacity. *)
let plan ~register_pool demands =
  (* Greedy admission by descending weight: heavier queries (more keys,
     more operator value) get in first. *)
  let sorted =
    List.sort (fun a b -> compare b.weight a.weight) demands
  in
  let admitted_cells = Hashtbl.create 32 in
  let pool_left = ref register_pool in
  let admitted = ref [] and rejected = ref [] in
  List.iter
    (fun d ->
      let compiled = Newton_compiler.Compose.compile d.query in
      let arrays = max 1 (arrays_needed compiled) in
      let min_regs = arrays * d.min_registers in
      if rules_fit admitted_cells compiled && min_regs <= !pool_left
      then begin
        commit_rules admitted_cells compiled;
        pool_left := !pool_left - min_regs;
        admitted := (d, arrays) :: !admitted
      end
      else rejected := d.query :: !rejected)
    sorted;
  let admitted = List.rev !admitted in
  (* Second phase: water-fill the whole pool (minimums are guaranteed by
     admission) in units of per-array registers. *)
  let scaled_demands =
    List.map
      (fun (d, arrays) ->
        { d with
          min_registers = d.min_registers * arrays;
          max_registers = d.max_registers * arrays })
      admitted
  in
  let fills = waterfill ~pool:register_pool scaled_demands in
  let assignments =
    List.map2
      (fun (d, arrays) fill ->
        { a_query = d.query; registers = max d.min_registers (fill / arrays) })
      admitted fills
  in
  let used =
    List.fold_left2
      (fun acc (_, arrays) a -> acc + (arrays * a.registers))
      0 admitted assignments
  in
  {
    admitted = assignments;
    rejected = List.rev !rejected;
    pool_used = min used register_pool;
    pool_total = register_pool;
  }

(** Registers assigned to a query in a plan. *)
let registers_of plan query =
  List.find_map
    (fun a -> if a.a_query == query then Some a.registers else None)
    plan.admitted
