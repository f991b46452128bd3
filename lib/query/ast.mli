(** The traffic-monitoring query AST: chains of stream-processing
    primitives over the packet stream, evaluated per time window, with
    optional parallel branches merged by a combine step (§2.1, Fig. 6). *)

open Newton_packet

(** A (possibly bit-masked) header field used as an operation key. *)
type key = { field : Field.t; mask : int }

(** [key ?mask f]; the mask defaults to the field's full width. *)
val key : ?mask:int -> Field.t -> key

(** Full-mask keys for a field list. *)
val keys : Field.t list -> key list

type cmp_op = Eq | Neq | Gt | Ge | Lt | Le

val cmp_holds : cmp_op -> int -> int -> bool

(** Filter predicates: [Cmp] tests a (masked) header field;
    [Result_cmp] tests the running aggregate of an upstream stateful
    primitive (threshold filters). *)
type pred =
  | Cmp of { field : Field.t; mask : int; op : cmp_op; value : int }
  | Result_cmp of { op : cmp_op; value : int }

(** Masked-equality predicate on a field. *)
val field_is : ?mask:int -> Field.t -> int -> pred

(** [count > th]. *)
val result_gt : int -> pred

type agg =
  | Count                  (** one per packet *)
  | Sum_field of Field.t   (** sum a header field *)
  | Max_field of Field.t   (** running maximum of a header field *)

type primitive =
  | Filter of pred list    (** conjunction *)
  | Map of key list        (** project onto keys *)
  | Distinct of key list   (** first packet per key per window *)
  | Reduce of { keys : key list; agg : agg }

type branch = primitive list

(** How a multi-branch query merges per-key aggregates. *)
type combine_op =
  | Sub  (** left − right, clamped at 0 *)
  | Min
  | Pair (** export both; the analyzer applies the final intent *)

type combine = { op : combine_op; threshold : pred }

type t = {
  id : int;
  name : string;
  description : string;
  branches : branch list;
  combine : combine option; (** required iff ≥ 2 branches *)
  window : float;           (** state-reset period, seconds *)
}

(** The paper's default: 100 ms windows. *)
val default_window : float

val make :
  ?window:float -> ?combine:combine -> id:int -> name:string ->
  description:string -> branch list -> t

(** Single-branch query. *)
val chain :
  ?window:float -> id:int -> name:string -> description:string ->
  primitive list -> t

type error =
  | Empty_query
  | Empty_branch of int
  | Missing_combine
  | Combine_without_branches
  | Reduce_after_nothing of int
  | Empty_keys of int
  | Combine_branch_without_reduce of int
  | Combine_field_threshold
  | Combine_arity of int
  | Internal of string  (** an invariant the front-end should have upheld *)

val error_to_string : error -> string

(** Semicolon-joined rendering of an error list. *)
val errors_to_string : error list -> string

(** The typed rejection every user-reachable front-end path raises for
    a structurally invalid query (instead of [Invalid_argument]); the
    analyzer converts it into diagnostics.  A printer is registered, so
    an escaped exception renders as the error list. *)
exception Invalid of { query_id : int; query_name : string; errors : error list }

(** [invalid ?id ?name errors] builds {!Invalid} (defaults: id 0,
    name ["?"]). *)
val invalid : ?id:int -> ?name:string -> error list -> exn

(** All structural problems found (empty = valid). *)
val validate : t -> error list

val is_valid : t -> bool

val cmp_to_string : cmp_op -> string
val pred_to_string : pred -> string
val to_string : t -> string

(** Total primitives across branches. *)
val num_primitives : t -> int

(** Field-and-mask equality of key lists (order-sensitive). *)
val keys_equal : key list -> key list -> bool

(** The packet-space atoms of a branch: every [Cmp] predicate of every
    [Filter], paired with its primitive index, in chain order
    ([Result_cmp] aggregate thresholds excluded).  The conjunction of
    these atoms is the exact per-packet condition for the branch to
    pass all its filters — the input the packet-space solver compiles. *)
val cmp_atoms : branch -> (int * pred) list
