(** P4-16 program generation for the Newton module layout — the one-time
    program loaded at initialization; everything afterwards is table
    rules ({!Rules}).  Targets v1model; {!Newton_p4sim} interprets
    exactly the subset emitted here (see docs/P4GEN.md). *)

(** Layout parameters of the emitted pipeline. *)
type layout = {
  stages : int;           (** stages carrying Newton modules *)
  registers : int;        (** registers per allocated state array *)
  rules_per_table : int;  (** capacity of each module table *)
}

val default_layout : layout

(** Default size in 32-bit words of the global [newton_state] register
    file for a layout: one array-sized bank per (stage, metadata set). *)
val state_words_of_layout : layout -> int

(** Stable table naming scheme shared with {!Rules}. *)
val table_name :
  stage:int -> kind:Newton_dataplane.Module_cost.kind -> set:int -> string

(** The trigger (guard) table paired with the R table of a cell. *)
val trigger_name : stage:int -> set:int -> string

(** [Field.to_string] with ['.'] flattened to ['_'] — the spelling used
    in metadata field names and action parameters. *)
val field_slug : Newton_packet.Field.t -> string

(** Normalized canonical metadata field reference ([meta.f_sip], ...).
    Total over all 18 fields. *)
val meta_field : Newton_packet.Field.t -> string

(** Metadata field name of a (set, global field) operation key. *)
val key_field : set:int -> Newton_packet.Field.t -> string

val state_result : set:int -> string

(** Number of 5-bit positions in a key descriptor. *)
val desc_positions : int

(** Emit the complete program.  [state_words] overrides the size of the
    global register file (for deployments whose rules need more arrays
    than the per-layout default).
    @raise Invalid_argument on non-positive layout sizes. *)
val program : ?layout:layout -> ?state_words:int -> unit -> string
