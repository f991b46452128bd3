(** Runtime table-rule generation for the static program emitted by
    {!Emit} — the entries the Newton controller pushes to reconfigure
    the data plane without recompiling it (see docs/P4GEN.md).

    Translation is total over compiler output: anything the static
    action menu cannot express comes back as a typed {!issue} (never an
    exception), which the analyzer surfaces as NA080-NA083. *)

type mtch =
  | M_exact of string * int
  | M_ternary of string * int * int  (** field, value, mask *)
  | M_range of string * int * int    (** field, lo, hi (inclusive) *)

type entry = {
  table : string;
  matches : mtch list;
  action : string;
  params : (string * string) list;
  priority : int;  (** numeric-larger wins on overlap *)
}

(** Why a compiled query has no rule encoding for the static program. *)
type issue =
  | Too_many_keys of { branch : int; prim : int; count : int; limit : int }
  | Duplicate_key of {
      branch : int;
      prim : int;
      field : Newton_packet.Field.t;
    }
  | Unsupported_r of { branch : int; prim : int; reason : string }
  | Missing_read_target of {
      branch : int;
      prim : int;
      target : int * int * int;
    }
  | Registers_exhausted of { needed : int; capacity : int }
  | Too_many_branches of { branches : int; limit : int }

val issue_to_string : issue -> string

(** Allocator for the global resources entries consume: [newton_state]
    register-file words and pending-bitmap bit positions.  Share one
    allocator across {!entries} calls to build a co-resident deployment
    ([newton p4 emit --all]). *)
type allocator

(** Fresh allocator for a layout; [state_words] overrides the register
    file size (must match the [Emit.program] override). *)
val allocator : ?state_words:int -> Emit.layout -> allocator

(** Register-file words allocated so far. *)
val words_used : allocator -> int

(** The classifier-visible metadata field for a match on [f].  Total
    over all 18 constructors — no wildcard fallback. *)
val init_field_name : Newton_packet.Field.t -> string

(** Packed 60-bit key descriptor of an ordered key list (5 bits per
    position, code = field index + 1, 0 terminates). *)
val descriptor : Newton_query.Ast.key list -> int

(** Pipeline passes (1 + recirculations) the densest packet takes
    through this intent: the size of its largest consistent branch
    subset.  Drives diagnostic NA082. *)
val overlap_passes : Newton_compiler.Compose.t -> int

(** All entries configuring [compiled] as traffic class [class_id]
    (branch [b] runs as [class_id + b]; default 1): classifier product
    entries over [newton_init] / [newton_resume] / [newton_recirc],
    plus per-slot module-table and trigger-table entries.  State arrays
    are carved out of [alloc] (fresh when omitted). *)
val entries :
  ?class_id:int ->
  ?layout:Emit.layout ->
  ?alloc:allocator ->
  Newton_compiler.Compose.t ->
  (entry list, issue) result

(** [entries], raising [Invalid_argument] on an issue — for callers
    that already passed the analyzer gate.
    @raise Invalid_argument on any {!issue}. *)
val entries_exn :
  ?class_id:int ->
  ?layout:Emit.layout ->
  ?alloc:allocator ->
  Newton_compiler.Compose.t ->
  entry list

(** Render entries as a JSON array, one entry per line — the wire
    format [newton p4 emit --rules-out] writes and {!Newton_p4sim}
    loads. *)
val to_json : entry list -> string
