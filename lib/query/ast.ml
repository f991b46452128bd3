(** The traffic-monitoring query AST.

    Newton adopts Sonata's stream-processing abstraction (§2.1): a query
    is a chain of {!primitive}s — [filter], [map], [distinct], [reduce] —
    over the packet stream, evaluated per time window.  Queries that need
    two parallel sub-queries whose results are merged (e.g. SYN-minus-FIN
    for SYN-flood detection, Fig. 6) carry several {!branch}es plus a
    {!combine} step; Newton runs the branches concurrently on the data
    plane and merges through the R module's global result. *)

open Newton_packet

(** A (possibly bit-masked) header field used as an operation key.
    Masking expresses e.g. "the /24 prefix of dip". *)
type key = { field : Field.t; mask : int }

let key ?mask field =
  { field; mask = Option.value mask ~default:(Field.full_mask field) }

let keys fields = List.map (fun f -> key f) fields

(** Comparison operators for predicates. *)
type cmp_op = Eq | Neq | Gt | Ge | Lt | Le

(* Int-typed: a polymorphic comparison would be a C call per guard. *)
let cmp_holds op (a : int) (b : int) =
  match op with
  | Eq -> a = b
  | Neq -> a <> b
  | Gt -> a > b
  | Ge -> a >= b
  | Lt -> a < b
  | Le -> a <= b

(** Filter predicates.  [Cmp] tests a (masked) packet header field;
    [Result_cmp] tests the running aggregate produced by an upstream
    [reduce]/[distinct] — this is how threshold filters like
    [filter(count > Th)] are written. *)
type pred =
  | Cmp of { field : Field.t; mask : int; op : cmp_op; value : int }
  | Result_cmp of { op : cmp_op; value : int }

let field_is ?mask field value =
  Cmp { field; mask = Option.value mask ~default:(Field.full_mask field); op = Eq; value }

let result_gt th = Result_cmp { op = Gt; value = th }

(** Aggregation functions for [reduce]. *)
type agg =
  | Count                  (** one per packet *)
  | Sum_field of Field.t   (** sum a header field, e.g. payload bytes *)
  | Max_field of Field.t   (** running maximum of a header field *)

type primitive =
  | Filter of pred list (** conjunction of predicates *)
  | Map of key list     (** project the tuple onto these keys *)
  | Distinct of key list (** pass only the first packet per key per window *)
  | Reduce of { keys : key list; agg : agg }
      (** per-key running aggregate; downstream sees the updated value *)

type branch = primitive list

(** How a multi-branch query merges its branches' per-key aggregates. *)
type combine_op =
  | Sub  (** left - right (clamped at 0), e.g. #SYN - #FIN *)
  | Min  (** min(left, right), e.g. completed = min(#opened, #closed) *)
  | Pair (** export both values; the analyzer applies the final intent *)

type combine = {
  op : combine_op;
  threshold : pred; (** predicate over the combined value, normally [Result_cmp] *)
}

type t = {
  id : int;
  name : string;
  description : string;
  branches : branch list;
  combine : combine option; (** required iff there are >= 2 branches *)
  window : float;           (** state reset period, seconds; paper uses 0.1 *)
}

(** Paper default: stateful primitives evaluate & reset every 100 ms. *)
let default_window = 0.1

let make ?(window = default_window) ?combine ~id ~name ~description branches =
  { id; name; description; branches; combine; window }

let chain ?(window = default_window) ~id ~name ~description prims =
  make ~window ~id ~name ~description [ prims ]

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)

type error =
  | Empty_query
  | Empty_branch of int
  | Missing_combine
  | Combine_without_branches
  | Reduce_after_nothing of int  (** Result_cmp with no upstream stateful primitive *)
  | Empty_keys of int
  | Combine_branch_without_reduce of int
  | Combine_field_threshold
  | Combine_arity of int
  | Internal of string

let error_to_string = function
  | Empty_query -> "query has no branches"
  | Empty_branch i -> Printf.sprintf "branch %d is empty" i
  | Missing_combine -> "multi-branch query lacks a combine step"
  | Combine_without_branches -> "combine given but query has a single branch"
  | Reduce_after_nothing i ->
      Printf.sprintf "branch %d: Result_cmp before any distinct/reduce" i
  | Empty_keys i -> Printf.sprintf "branch %d: primitive with empty key list" i
  | Combine_branch_without_reduce i ->
      Printf.sprintf "branch %d: combine requires the branch to end in a reduce" i
  | Combine_field_threshold -> "combine threshold must test the count, not a field"
  | Combine_arity n ->
      Printf.sprintf "combine requires exactly two branches, query has %d" n
  | Internal msg -> "internal invariant violated: " ^ msg

exception Invalid of { query_id : int; query_name : string; errors : error list }

let invalid ?(id = 0) ?(name = "?") errors =
  Invalid { query_id = id; query_name = name; errors }

let errors_to_string errors =
  String.concat "; " (List.map error_to_string errors)

(* Printf-able rendering so an escaped exception still reads as a
   diagnostic, not a constructor dump. *)
let () =
  Printexc.register_printer (function
    | Invalid { query_id; query_name; errors } ->
        Some
          (Printf.sprintf "invalid query %s (Q%d): %s" query_name query_id
             (errors_to_string errors))
    | _ -> None)

(** Structural validation; returns all problems found. *)
let validate t =
  let errs = ref [] in
  let err e = errs := e :: !errs in
  if t.branches = [] then err Empty_query;
  List.iteri
    (fun i b ->
      if b = [] then err (Empty_branch i);
      let stateful_seen = ref false in
      List.iter
        (function
          | Filter preds ->
              List.iter
                (function
                  | Result_cmp _ when not !stateful_seen -> err (Reduce_after_nothing i)
                  | _ -> ())
                preds
          | Map ks -> if ks = [] then err (Empty_keys i)
          | Distinct ks ->
              if ks = [] then err (Empty_keys i);
              stateful_seen := true
          | Reduce { keys; _ } ->
              if keys = [] then err (Empty_keys i);
              stateful_seen := true)
        b)
    t.branches;
  (match (t.combine, t.branches) with
  | None, _ :: _ :: _ -> err Missing_combine
  | Some _, ([] | [ _ ]) -> err Combine_without_branches
  | _ -> ());
  List.rev !errs

let is_valid t = validate t = []

(* ------------------------------------------------------------------ *)
(* Pretty printing                                                     *)

let cmp_to_string = function
  | Eq -> "==" | Neq -> "!=" | Gt -> ">" | Ge -> ">=" | Lt -> "<" | Le -> "<="

let key_to_string k =
  if k.mask = Field.full_mask k.field then Field.to_string k.field
  else Printf.sprintf "%s&0x%x" (Field.to_string k.field) k.mask

let pred_to_string = function
  | Cmp { field; mask; op; value } ->
      if mask = Field.full_mask field then
        Printf.sprintf "pkt.%s %s %d" (Field.to_string field) (cmp_to_string op) value
      else
        Printf.sprintf "(pkt.%s & 0x%x) %s %d" (Field.to_string field) mask
          (cmp_to_string op) value
  | Result_cmp { op; value } ->
      Printf.sprintf "count %s %d" (cmp_to_string op) value

let keys_to_string ks = String.concat ", " (List.map key_to_string ks)

let primitive_to_string = function
  | Filter preds ->
      Printf.sprintf "filter(%s)" (String.concat " && " (List.map pred_to_string preds))
  | Map ks -> Printf.sprintf "map(%s)" (keys_to_string ks)
  | Distinct ks -> Printf.sprintf "distinct(%s)" (keys_to_string ks)
  | Reduce { keys; agg } ->
      let f =
        match agg with
        | Count -> "count"
        | Sum_field f -> "sum " ^ Field.to_string f
        | Max_field f -> "max " ^ Field.to_string f
      in
      Printf.sprintf "reduce(keys=(%s), f=%s)" (keys_to_string keys) f

let combine_op_to_string = function Sub -> "sub" | Min -> "min" | Pair -> "pair"

let to_string t =
  let branches =
    List.mapi
      (fun i b ->
        Printf.sprintf "  branch %d: %s" i
          (String.concat " . " (List.map primitive_to_string b)))
      t.branches
    |> String.concat "\n"
  in
  let combine =
    match t.combine with
    | None -> ""
    | Some { op; threshold } ->
        Printf.sprintf "\n  combine: %s, %s" (combine_op_to_string op)
          (pred_to_string threshold)
  in
  Printf.sprintf "%s (Q%d): %s\n%s%s" t.name t.id t.description branches combine

(* ------------------------------------------------------------------ *)
(* Structure queries used by the compiler                              *)

let num_primitives t =
  List.fold_left (fun acc b -> acc + List.length b) 0 t.branches

let keys_equal a b =
  List.length a = List.length b
  && List.for_all2 (fun x y -> Field.equal x.field y.field && x.mask = y.mask) a b

(** The packet-space atoms of a branch: every [Cmp] predicate of every
    [Filter], paired with its primitive index (chain order preserved).
    [Result_cmp] thresholds constrain aggregates, not packets, and are
    excluded.  This is the access path the exact space solver compiles
    a branch through. *)
let cmp_atoms branch =
  List.concat
    (List.mapi
       (fun p prim ->
         match prim with
         | Filter preds ->
             List.filter_map
               (function
                 | Cmp _ as atom -> Some (p, atom) | Result_cmp _ -> None)
               preds
         | Map _ | Distinct _ | Reduce _ -> [])
       branch)
