(** The common surface every analysis pass implements, plus the shared
    analysis context the driver ({!Check}) builds once per query.

    Passes are pure: they look at the query AST, the compiled slot IR
    (when compilation succeeded), the optional placement facts and the
    other queries sharing the deployment, and return {!Diag.t} lists.
    They never raise on user input — the driver additionally wraps each
    run so an escaped exception becomes an NA099 diagnostic rather than
    a crash. *)

open Newton_query
open Newton_compiler

(** Tunables the resource passes check against.  Defaults mirror the
    modelled switch: 256-entry rule cells, the register file of a
    Tofino-like stage, and the sketch-accuracy targets the paper's
    evaluation uses. *)
type config = {
  options : Decompose.options;  (** compile options analysis assumes *)
  rule_capacity : int;          (** entries per (stage, kind, set) cell *)
  register_budget : int;        (** registers one query may allocate *)
  expected_keys : int;          (** assumed distinct keys per window *)
  fpr_bound : float;            (** tolerated Bloom false-positive rate *)
  cm_epsilon : float;           (** tolerated CM relative error (of mass) *)
  cm_delta : float;             (** tolerated CM error probability *)
}

let default_config =
  {
    options = Decompose.default_options;
    rule_capacity = 256;
    register_budget = 1 lsl 20;
    expected_keys = 1000;
    fpr_bound = 0.05;
    cm_epsilon = 0.01;
    cm_delta = 0.2;
  }

(** Placement facts, decoupled from the controller's [Placement.t] so
    the analysis library stays below the controller in the dependency
    order.  Build one with {!target} or from a computed placement. *)
type target = {
  stages_per_switch : int;
  num_switches : int;
  switch_slices : int list array;   (** per switch: 1-based slice ids *)
  slice_ranges : (int * int) array; (** per slice: stage lo/hi (0-based) *)
  max_path_depth : int;             (** deepest slice id actually placed *)
}

let target ~stages_per_switch ~num_switches ~switch_slices ~slice_ranges
    ~max_path_depth =
  { stages_per_switch; num_switches; switch_slices; slice_ranges; max_path_depth }

(** A branch's packet space: the conjunction of its field predicates. *)
let branch_space branch = Space.of_preds (List.map snd (Ast.cmp_atoms branch))

(** The packets an intent's exports can derive from: the union of its
    branches' filter conjunctions. *)
let query_space (q : Ast.t) =
  List.fold_left
    (fun acc b -> Space.union acc (branch_space b))
    Space.empty q.Ast.branches

(** Another intent of the deployment.  Its packet space is computed
    once, by {!peer}, and every later admission reads it. *)
type peer = {
  p_query : Ast.t;
  p_compiled : Compose.t option;  (** None when compilation failed *)
  p_space : Space.t option;       (** None when over the cube budget *)
  p_universe : bool;              (** [p_space] matches every packet *)
}

let peer p_query p_compiled =
  match
    let s = query_space p_query in
    (s, Space.is_universe s)
  with
  | s, universe -> { p_query; p_compiled; p_space = Some s; p_universe = universe }
  | exception Space.Too_complex ->
      { p_query; p_compiled; p_space = None; p_universe = false }

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

let absorbed ctx b =
  match ctx.compiled with
  | None -> false
  | Some c ->
      b < Array.length c.Compose.init_entries
      && c.Compose.init_entries.(b).Ir.ie_matches <> []

module type S = sig
  val name : string
  val doc : string

  (** Codes this pass can emit (documentation + golden-test guard). *)
  val codes : string list

  val run : ctx -> Diag.t list
end
