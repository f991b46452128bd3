(** Concurrent-query scheduling — the open question of §7: admission
    under module-table rule capacity plus water-filling register
    allocation over per-query weights (expected key populations). *)

type demand = {
  query : Newton_query.Ast.t;
  weight : float;        (** expected distinct keys / load share *)
  min_registers : int;   (** per-array floor below which accuracy is unacceptable *)
  max_registers : int;   (** per-array ceiling beyond which memory stops helping *)
}

(** @raise Invalid_argument on non-positive weight or an inverted band. *)
val demand :
  ?weight:float -> ?min_registers:int -> ?max_registers:int ->
  Newton_query.Ast.t -> demand

type assignment = {
  a_query : Newton_query.Ast.t;
  registers : int; (** per state-bank array for this query *)
}

type plan = {
  admitted : assignment list;
  rejected : Newton_query.Ast.t list;
  pool_used : int;
  pool_total : int;
}

(** Plan one switch: greedy admission by descending weight under the
    per-cell rule capacity ({!Newton_dataplane.Module_cost.rules_per_module})
    and the register pool, then water-fill the pool across admitted
    queries within their bands. *)
val plan : register_pool:int -> demand list -> plan

(** Registers assigned to a (physically identical) query in a plan. *)
val registers_of : plan -> Newton_query.Ast.t -> int option
