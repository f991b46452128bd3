(** The common surface every analysis pass implements, plus the shared
    analysis context the driver ({!Check}) builds once per query. *)

open Newton_query
open Newton_compiler

(** Tunables the resource passes check against. *)
type config = {
  options : Decompose.options;  (** compile options analysis assumes *)
  rule_capacity : int;          (** entries per (stage, kind, set) cell *)
  register_budget : int;        (** registers one query may allocate *)
  expected_keys : int;          (** assumed distinct keys per window *)
  fpr_bound : float;            (** tolerated Bloom false-positive rate *)
  cm_epsilon : float;           (** tolerated CM relative error (of mass) *)
  cm_delta : float;             (** tolerated CM error probability *)
}

val default_config : config

(** Placement facts, decoupled from the controller's [Placement.t] so
    the analysis library stays below the controller in the dependency
    order. *)
type target = {
  stages_per_switch : int;
  num_switches : int;
  switch_slices : int list array;   (** per switch: 1-based slice ids *)
  slice_ranges : (int * int) array; (** per slice: stage lo/hi (0-based) *)
  max_path_depth : int;             (** deepest slice id actually placed *)
}

val target :
  stages_per_switch:int -> num_switches:int -> switch_slices:int list array ->
  slice_ranges:(int * int) array -> max_path_depth:int -> target

(** A branch's packet space: the conjunction of its field predicates
    ({!Space.of_preds}).  @raise Space.Too_complex over the budget. *)
val branch_space : Ast.branch -> Space.t

(** An intent's packet space: the union of its branches' spaces, the
    packets its exports can derive from.
    @raise Space.Too_complex over the budget. *)
val query_space : Ast.t -> Space.t

(** Another intent of the deployment, as the cross-intent passes read
    it: NA060/NA061 compare [p_query]; NA092 and NA094 read [p_space]
    and never recompute it. *)
type peer = {
  p_query : Ast.t;
  p_compiled : Compose.t option;  (** None when compilation failed *)
  p_space : Space.t option;
      (** the intent's {!query_space}; [None] when it, or deciding
          [p_universe], is over the cube budget: NA092 then skips the
          peer and NA094 stays silent *)
  p_universe : bool;
      (** [p_space] matches every packet: NA092 skips the peer, since
          an unfiltered intent trivially shadows everything *)
}

(** [peer query compiled] builds the record, computing the space once.
    Front-ends build one per deployed intent, at install or once per
    set, and hand the same records to every admission. *)
val peer : Ast.t -> Compose.t option -> peer

(** Everything a pass may look at. *)
type ctx = {
  query : Ast.t;
  cfg : config;
  compiled : Compose.t option;        (** None when compilation failed *)
  compile_error : string option;      (** why, when it failed *)
  rules :
    (Newton_p4gen.Rules.entry list, Newton_p4gen.Rules.issue) result option
    Lazy.t;
      (** [Rules.entries] of [compiled] (None when compilation failed),
          computed once on first use *)
  peers : peer list;
      (** the other intents of the deployment, each with its packet space
          computed once, when it was installed or entered the set *)
  co_resident : Compose.t list;
      (** compiled queries sharing the pipeline (capacity stacking) *)
  target : target option;             (** placement facts, when known *)
}

(** Is branch [b]'s front filter absorbed into its [newton_init] entry
    (the entry carries ternary matches)?  [false] when the query did
    not compile. *)
val absorbed : ctx -> int -> bool

module type S = sig
  val name : string
  val doc : string

  (** Codes this pass can emit (documentation + golden-test guard). *)
  val codes : string list

  val run : ctx -> Diag.t list
end
