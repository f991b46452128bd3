(** Exact packet-space solver: decidable set algebra over the canonical
    18-field header space.

    A value of type {!t} denotes a set of packets — a union of {e
    ternary bit-cubes}, each cube constraining some bits of some fields
    to fixed values and leaving the rest free.  Every predicate atom the
    query language admits ([==], [!=], [<], [<=], [>], [>=] over a
    masked field) compiles to such a union {e exactly}, mirroring
    {!Newton_query.Ref_eval}'s semantics bit for bit:
    [(packet.field land mask) op value], with the packet field truncated
    to its declared width.

    On top of cube unions the module provides intersection, union,
    difference, complement, emptiness, containment and {e model
    extraction} — a concrete witness packet inside any non-empty set.
    These are the primitives the [space] analysis pass family
    (NA021, NA022, NA090–NA094) uses to turn diagnostics into proofs.

    All operations are exact.  Cube counts can grow on adversarial
    inputs, so every operation runs under a global budget; exceeding it
    raises {!Too_complex}, checked before the result is absorbed
    (callers drop the affected finding, they never report wrong
    answers).  A conjunction alone ({!solve}) is decided per field and
    never multiplies its factors out.  Containment ({!subset}, {!equal},
    {!is_universe}) and its witness ({!witness_outside}) never build the
    difference: they search for an uncovered piece of the left operand,
    stop at the first one, and run under the same budget as a bound on
    the pieces they visit. *)

open Newton_packet
open Newton_query

type t

(** Raised when an operation would exceed the internal cube budget.
    Exactness is preserved by refusing, never by approximating. *)
exception Too_complex

(** The set of all packets. *)
val universe : t

(** The empty set. *)
val empty : t

val is_empty : t -> bool

(** [is_universe s] — does [s] contain every packet?  Decided like
    {!subset} (never builds the complement). *)
val is_universe : t -> bool

(** Number of cubes in the union (a complexity measure, not a
    cardinality). *)
val cube_count : t -> int

(** [atom field mask op value] — the exact set of packets satisfying
    [(packet.field land mask) op value].  Total: malformed masks and
    out-of-range values yield the (exact) constant sets the reference
    evaluator's arithmetic induces — e.g. an equality against a value
    with bits outside the mask is [empty], never an error. *)
val atom : Field.t -> int -> Ast.cmp_op -> int -> t

(** [of_pred p] — [atom] for a [Cmp]; [universe] for a [Result_cmp]
    (aggregate thresholds do not constrain the packet space). *)
val of_pred : Ast.pred -> t

(** Conjunction of a predicate list (a [Filter]'s semantics). *)
val of_preds : Ast.pred list -> t

(** [of_matches ms] — the set matched by a ternary classifier entry:
    the conjunction of [(field land mask) = value] over [ms] (an
    {!Newton_compiler.Ir.init_entry}'s match list; [[]] = match-all). *)
val of_matches : (Field.t * int * int) list -> t

(** Every result is absorbed (no cube lies inside another), so an
    empty operand of [union] and a universal operand of [inter] hand
    back the other operand itself, cube for cube. *)
val inter : t -> t -> t
val union : t -> t -> t

(** [diff a b] — packets in [a] but not in [b]. *)
val diff : t -> t -> t

val compl : t -> t

(** [subset a b] — is every packet of [a] in [b]?  Agrees with
    [is_empty (diff a b)] but never builds the difference: each cube of
    [a] is split along [b]'s cubes in turn and the search stops at the
    first piece no cube covers.  Raises {!Too_complex} once one call
    has visited more pieces than the cube budget. *)
val subset : t -> t -> bool

(** [witness_outside a b] — a packet of [a] that is not in [b], or
    [None] iff [subset a b].  The packet is read off the first
    uncovered piece {!subset}'s search meets (same order, same budget,
    same {!Too_complex}), so it costs no more than the containment test
    and never builds the difference.  When [a] is a single cube and
    [diff a b] stays within budget, it equals [model (diff a b)]: the
    pieces split from one cube are disjoint, so the difference keeps
    them all, in the search's order. *)
val witness_outside : t -> t -> Packet.t option

(** [equal a b] — [subset a b && subset b a], under the same bound. *)
val equal : t -> t -> bool

(** [mem s p] — does the set contain the packet? *)
val mem : t -> Packet.t -> bool

(** A concrete packet inside the set, or [None] iff the set is empty.
    The model's unconstrained fields are zero; its timestamp is 0.
    [model s] is guaranteed to satisfy [mem s] (and hence, for a set
    built with {!of_preds}, to pass the same predicates under
    {!Newton_query.Ref_eval}'s comparison arithmetic). *)
val model : t -> Packet.t option

(** [solve preds] — a packet passing every predicate of [preds], or
    [None] iff none does.  An atom constrains only its own field, so
    the conjunction is empty iff one field's factor is, and a model
    merges the first cube of each factor; the factors are never
    multiplied out.  Raises {!Too_complex} only when one field's factor
    exceeds the cube budget. *)
val solve : Ast.pred list -> Packet.t option

(** [pred_holds p pkt] — the reference evaluator's verdict for one
    [Cmp] atom ([Result_cmp] is vacuously true): exactly
    [Ast.cmp_holds op (Packet.get pkt field land mask) value].  The
    oracle {!atom} is tested against. *)
val pred_holds : Ast.pred -> Packet.t -> bool

(** Human rendering of a set (cube list, constrained fields only). *)
val to_string : t -> string
