(** Interpreter for the emitted v1model subset: parses Ethernet
    frame bytes into headers, runs the ingress apply block against
    runtime-installed table entries, models the register/hash/digest
    externs with the engine's exact semantics, and follows
    [recirculate_preserving_field_list] loops. *)

exception Runtime_error of string
exception Install_error of string

type t

(** Instantiate a parsed program: resolves the ingress control (the one
    carrying tables), header layouts, declared widths, registers and
    the @field_list(1) preservation set.
    @raise Runtime_error if the program has no control with tables. *)
val create : P4ast.program -> t

(** Install controller rules (the {!Newton_p4gen.Rules} wire entries).
    @raise Install_error on unknown tables/actions, malformed matches,
    or more entries than a table's declared [size] (a table without
    one is unbounded). *)
val install : t -> Newton_p4gen.Rules.entry list -> unit

(** Zero the register file — the window-roll reset. *)
val clear_state : t -> unit

(** Run one packet through the pipeline (recirculations included);
    returns emitted digests in order, each the evaluated field tuple of
    the digest's struct.
    @raise Runtime_error on semantic drift (unknown calls, register
    out-of-bounds, non-converging recirculation). *)
val run : t -> ?ingress_port:int -> string -> int array list

(** Pipeline passes (1 + recirculations) the most recent {!run} packet
    took; 0 before any run.  The observable NA093's witness replay
    asserts against. *)
val last_passes : t -> int
