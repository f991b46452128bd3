(** Folding per-shard replay results back into one view: epoch-aligned
    report concatenation (+ identity dedup) and ALU-merged sketch state
    ([`Or] Bloom, [`Add] Count-Min, [`Max] running maxima). *)

open Newton_query
open Newton_sketch

(** Resolve the merge op of each state-bank key from an instance's slot
    layout — suitable as the [op_of] argument of
    {!Engine.absorb_state}. *)
val array_ops :
  Engine.instance -> Engine.array_key -> Register_array.merge_op option

(** Merge per-shard report streams: stable sort on (window, query) —
    epochs contiguous, shard-major inside an epoch — then first-wins
    identity dedup (the analyzer's network-wide rule). *)
val reports : Report.t list list -> Report.t list

(** Merge one installed query's register arrays across its per-shard
    instances; the merge op per array comes from its S slot, and the
    result preserves the engine's array-listing order.  With shared
    hash seeds the result is register-for-register the sequential
    engine's state over the same window.
    @raise Invalid_argument on shape mismatch, or when a state bank has
    no merge op in the slot layout (no implicit default: a Bloom bank
    must never be summed by accident). *)
val instance_arrays :
  Engine.instance list -> (Engine.array_key * Register_array.t) list
